package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// digester hashes results bit for bit: floats by their IEEE bits, strings
// length-prefixed, so no two different result sets share a byte stream.
type digester struct{ h hash.Hash }

func (d digester) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digester) i(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digester) s(v string) {
	d.i(int64(len(v)))
	d.h.Write([]byte(v))
}

// digest hashes an iteration's outputs: drawn and annotated WNS/TNS, every
// extracted gate's delay and leakage equivalent lengths at every corner, the
// ORC hotspot list, the merged multi-corner WNS/TNS and the Monte Carlo WNS
// vector. Sections a workload does not produce hash as absent.
func digest(o *outcome) string {
	d := digester{sha256.New()}
	res := o.res
	d.f(res.Drawn.WNS, res.Drawn.TNS, res.Annotated.WNS, res.Annotated.TNS)
	names := make([]string, 0, len(res.Extractions))
	for name := range res.Extractions {
		names = append(names, name)
	}
	sort.Strings(names)
	d.i(int64(len(names)))
	for _, name := range names {
		d.s(name)
		e := res.Extractions[name]
		d.i(int64(len(e.Sites)))
		for _, st := range e.Sites {
			d.s(st.LocalName)
			d.i(int64(len(st.PerCorner)))
			for _, c := range st.PerCorner {
				d.f(c.Corner.DefocusNM, c.Corner.Dose, c.DelayEL, c.LeakEL)
			}
		}
	}
	d.i(-1)
	if o.orc != nil {
		d.i(int64(o.orc.Tiles))
		d.i(int64(len(o.orc.Hotspots)))
		for _, h := range o.orc.Hotspots {
			d.s(h.Kind.String())
			d.i(int64(h.At.X))
			d.i(int64(h.At.Y))
			d.f(h.CDNM, h.Corner.DefocusNM, h.Corner.Dose)
			d.s(h.Gate)
		}
	}
	d.i(-2)
	if o.corners != nil {
		d.i(int64(len(o.corners.Corners)))
		d.f(o.corners.WNS, o.corners.TNS)
	}
	d.i(-3)
	if o.mc != nil {
		d.i(int64(len(o.mc.WNS)))
		d.f(o.mc.WNS...)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}
