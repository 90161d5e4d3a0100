// Command sigil-lint runs sigil's project-specific analyzer suite — the
// invariants past PRs fixed by hand, enforced mechanically:
//
//	detorder     no map-ordered iteration feeding rendered output
//	goleak       every go statement has a reachable join or cancel
//	hotalloc     //sigil:hot functions stay allocation-free
//	panicfree    no panic in internal/core, internal/trace, internal/vm
//	sinkerr      Close/Flush/Sync/Emit errors on sinks and files checked
//
// Usage:
//
//	sigil-lint [-json] [-list] [-run name,name] [packages]
//	sigil-lint -vm [-json] program.sasm...
//
// Packages default to ./... relative to the current directory. With -vm the
// arguments are VM assembly files; each is assembled and checked by the
// static program verifier, and its typed diagnostics (jump targets,
// fall-off, unreachable code, no-return loops, wild memory operands) are
// reported in the same text or JSON shape as Go findings.
//
// Exit status is 0 when the tree is clean, 1 when findings were reported,
// 2 on a usage or load error. Go findings can be suppressed at a
// documented boundary with a trailing `//sigil:lint-allow <analyzer>
// <reason>` comment (or on the line directly above).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sigil/internal/lint"
	"sigil/internal/lint/analysis"
	"sigil/internal/lint/loader"
	"sigil/internal/vm"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	vmMode := flag.Bool("vm", false, "statically verify VM assembly files instead of linting Go packages")
	flag.Parse()

	if *list {
		sorted := make([]*analysis.Analyzer, len(lint.All))
		copy(sorted, lint.All)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, a := range sorted {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	if *vmMode {
		return runVM(flag.Args(), *jsonOut)
	}

	analyzers := lint.All
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range lint.All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "sigil-lint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigil-lint: %v\n", err)
		return 2
	}
	findings, err := lint.Apply(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigil-lint: %v\n", err)
		return 2
	}

	// Report paths relative to the working directory: shorter, clickable,
	// and stable across checkouts (the JSON output feeds CI annotations).
	if wd, err := os.Getwd(); err == nil {
		for i := range findings {
			if rel, err := filepath.Rel(wd, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				findings[i].File = rel
			}
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := emitJSON(findings); err != nil {
			fmt.Fprintf(os.Stderr, "sigil-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "sigil-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// vmFinding is one verifier diagnostic in output form, mirroring
// lint.Finding's JSON shape with the VM-specific location fields.
type vmFinding struct {
	File    string `json:"file"`
	Class   string `json:"class"`
	Func    string `json:"func"`
	PC      int    `json:"pc"`
	Op      string `json:"op,omitempty"`
	Message string `json:"message"`
}

func (f vmFinding) String() string {
	loc := f.Func
	if f.PC >= 0 {
		loc = fmt.Sprintf("%s+%d (%s)", f.Func, f.PC, f.Op)
	}
	return fmt.Sprintf("%s: [vm-%s] %s: %s", f.File, f.Class, loc, f.Message)
}

// runVM assembles each file and reports the static verifier's typed
// diagnostics. Syntax errors are load errors (exit 2); verifier rejections
// are findings (exit 1).
func runVM(files []string, jsonOut bool) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "sigil-lint: -vm needs at least one assembly file")
		return 2
	}
	findings := []vmFinding{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigil-lint: %v\n", err)
			return 2
		}
		_, err = vm.Assemble(string(src))
		if err == nil {
			continue
		}
		var ve *vm.VerifyError
		if !errors.As(err, &ve) {
			fmt.Fprintf(os.Stderr, "sigil-lint: %s: %v\n", file, err)
			return 2
		}
		for _, d := range ve.Diags {
			f := vmFinding{
				File:    file,
				Class:   d.Class.String(),
				Func:    d.Func,
				PC:      d.PC,
				Message: d.Message,
			}
			if d.PC >= 0 {
				f.Op = d.Op.String()
			}
			findings = append(findings, f)
		}
	}
	if jsonOut {
		if err := emitJSON(findings); err != nil {
			fmt.Fprintf(os.Stderr, "sigil-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "sigil-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
