// btpub-vet runs the repo's custom analyzer suite (internal/lint): the
// invariants behind byte-identical sharded campaigns, lake crash-safety
// via the vfs.FS seam, and the /api/v1 error envelope, machine-checked.
//
//	btpub-vet ./...                 # allowlist ci/lint-allow.txt applied
//	btpub-vet -noallow ./...        # full debt report, allowlist ignored
//	btpub-vet -allow other.txt ./internal/lake/...
//
// Exit status is 0 only when every finding is allowlisted and every
// allowlist entry still suppresses something; a stale entry is itself a
// failure, so grandfathered debt cannot linger invisibly.
package main

import (
	"flag"
	"fmt"
	"os"

	"btpub/internal/lint"
)

func main() {
	allow := flag.String("allow", "", "allowlist file (default: the module's ci/lint-allow.txt)")
	noallow := flag.Bool("noallow", false, "ignore the allowlist and report every finding (nightly debt report)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: btpub-vet [-allow file | -noallow] [package pattern ...]\n\nAnalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args(), *allow, *noallow))
}

func run(patterns []string, allow string, noallow bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	switch {
	case noallow:
		allow = ""
	case allow == "":
		allow = lint.DefaultAllowFile(".")
	}
	res, err := lint.Run("", patterns, allow)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btpub-vet: %v\n", err)
		return 2
	}
	for _, f := range res.Findings {
		fmt.Println(f.String())
	}
	for _, e := range res.Stale {
		fmt.Printf("%s:%d: stale allowlist entry %q: no %s finding left in %s — delete the line\n",
			res.Allow.File, e.Line, e.Path+":"+e.Analyzer, e.Analyzer, e.Path)
	}
	if !res.Ok() {
		return 1
	}
	return 0
}
