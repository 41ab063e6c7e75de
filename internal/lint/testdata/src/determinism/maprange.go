package fixture

import (
	"fmt"
	"io"
	"sort"
)

// emitUnsorted lets map iteration order reach the output stream.
func emitUnsorted(w io.Writer, counts map[string]int) {
	for name, n := range counts {
		fmt.Fprintf(w, "%s %d\n", name, n) // want `fmt\.Fprintf inside map iteration`
	}
}

// collectUnsorted leaks iteration order through the returned slice.
func collectUnsorted(counts map[string]int) []string {
	var names []string
	for name := range counts {
		names = append(names, name) // want `append to names inside map iteration without a later sort`
	}
	return names
}

// collectSorted is the legal pattern: collect, then sort, then emit.
func collectSorted(w io.Writer, counts map[string]int) {
	var names []string
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, counts[name])
	}
}

// roster carries a slice field.
type roster struct{ names []string }

// collectFieldUnsorted leaks iteration order through a struct field.
func collectFieldUnsorted(r *roster, counts map[string]int) {
	for name := range counts {
		r.names = append(r.names, name) // want `append to r\.names inside map iteration without a later sort`
	}
}

// collectFieldSorted is the legal pattern for a field: collect, then sort
// the field.
func collectFieldSorted(r *roster, counts map[string]int) {
	for name := range counts {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
}

// aggregate never exposes order: reductions and map-to-map rebuilds are
// order-independent.
func aggregate(counts map[string]int) (int, map[string]bool) {
	total := 0
	seen := make(map[string]bool, len(counts))
	for name, n := range counts {
		total += n
		seen[name] = true
		scratch := []string{name}
		scratch = append(scratch, name) // loop-local: order cannot escape
		_ = scratch
		var local roster
		local.names = append(local.names, name) // loop-local: order cannot escape
		_ = local
	}
	return total, seen
}
