package obs

import (
	"runtime"
	"runtime/debug"
	"strings"

	"postopc/internal/dsp/vek"
)

// BuildInfo identifies the binary a telemetry export came from: go
// toolchain, platform, the GOAMD64 level its Go code was compiled for,
// the CPU features detected at run time, and the module version. The vek
// kernels choose their path from the detected features, not the build
// level: "avx2" in CPUFeatures means the AVX2 kernels ran. Bench hosts
// (and future multi-tenant daemons) are distinguishable from scrapes and
// ledgers alone.
type BuildInfo struct {
	GoVersion   string
	GOOS        string
	GOARCH      string
	VekLevel    string
	CPUFeatures string
	Module      string
}

// GetBuildInfo assembles the build identity of the running binary.
func GetBuildInfo() BuildInfo {
	bi := BuildInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		VekLevel:  vek.BuildLevel(),
		Module:    "postopc",
	}
	if bi.VekLevel == "" {
		bi.VekLevel = "none"
	}
	var feats []string
	cpu := vek.CPU()
	if cpu.AVX2 {
		feats = append(feats, "avx2")
	}
	if cpu.FMA {
		feats = append(feats, "fma")
	}
	if len(feats) == 0 {
		feats = append(feats, "none")
	}
	bi.CPUFeatures = strings.Join(feats, ",")
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Path != "" {
		bi.Module = info.Main.Path
		if v := info.Main.Version; v != "" && v != "(devel)" {
			bi.Module += "@" + v
		}
	}
	return bi
}
