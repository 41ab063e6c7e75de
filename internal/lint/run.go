package lint

import (
	"fmt"
	"os"
	"path/filepath"
)

// RunResult is the outcome of a suite run.
type RunResult struct {
	// Findings are the unsuppressed diagnostics, with filenames
	// rewritten slash-separated and module-relative.
	Findings []Finding
	// Raw is every diagnostic before allowlist filtering (same findings
	// as Findings when no allowlist applies).
	Raw []Finding
	// Stale are allowlist entries that suppressed nothing even though
	// their file was analyzed.
	Stale []*AllowEntry
	// Allow is the parsed allowlist, nil when none applied.
	Allow *Allowlist
}

// Ok reports a clean run: nothing to print, exit 0.
func (r *RunResult) Ok() bool { return len(r.Findings) == 0 && len(r.Stale) == 0 }

// Run loads the patterns from dir (""=cwd), applies the whole suite,
// and filters through the allowlist file (""=none). It is the btpub-vet
// engine, callable from tests.
func Run(dir string, patterns []string, allowFile string) (*RunResult, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	modDir := loader.ModuleDir()
	if modDir == "" {
		return nil, fmt.Errorf("lint: patterns matched no module packages")
	}

	analyzed := map[string]bool{}
	var raw []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Filenames {
			analyzed[moduleRel(modDir, f)] = true
		}
		for _, f := range Check(pkg, All) {
			f.Pos.Filename = moduleRel(modDir, f.Pos.Filename)
			raw = append(raw, f)
		}
	}

	res := &RunResult{Raw: raw, Findings: raw}
	if allowFile != "" {
		al, err := ParseAllowlist(allowFile)
		if err != nil {
			return nil, err
		}
		res.Allow = al
		res.Findings = al.Filter(raw)
		res.Stale = al.Stale(analyzed)
	}
	return res, nil
}

// DefaultAllowFile returns the checked-in allowlist path under the
// module that owns dir, or "" when none exists yet. The module root is
// found by walking up to go.mod, so no go command runs before the
// driver decides its flags.
func DefaultAllowFile(dir string) string {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			f := filepath.Join(d, "ci", "lint-allow.txt")
			if _, err := os.Stat(f); err == nil {
				return f
			}
			return ""
		}
		if filepath.Dir(d) == d {
			return ""
		}
	}
}

func moduleRel(modDir, file string) string {
	if rel, err := filepath.Rel(modDir, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}
