package main

import (
	"crypto/sha256"
	"fmt"
	"os/exec"
	"runtime/debug"
	"strings"

	"anycastctx"
)

// gitSHA identifies the source revision of this binary: the VCS stamp
// embedded by the Go toolchain when available, otherwise the working
// tree's HEAD, otherwise "". Purely informational — it tags run reports
// so performance numbers can be traced back to a commit.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	// `go run` and test binaries carry no VCS stamp; ask git directly.
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// configHash fingerprints the world configuration so two reports can be
// compared knowing whether they ran the same world. The fault policy is
// included via its seed/rate parameters printed by %+v. CacheDir is
// zeroed first, as the stage keys zero it: where artifacts live never
// changes the world.
func configHash(cfg anycastctx.Config) string {
	cfg.CacheDir = ""
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return fmt.Sprintf("%x", sum[:8])
}
