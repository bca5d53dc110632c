// Command iqlint runs the IQ-RUDP static-analysis suite (internal/analysis):
//
//	borrowcheck   Emit/HandlePacket borrow contract (DESIGN §11)
//	errdrop       socket error returns consumed or counted into Metrics
//	lockemit      no blocking I/O or Env.Emit under a held mutex
//	poolcheck     packet/BufPool acquire-release pairing, use-after-Put
//	timeafterloop time.After in loops (timer-leak regression guard)
//	tracekeys     registered trace reasons and attr keys only
//
// Standalone (the `make lint` entry point):
//
//	iqlint ./...
//	iqlint -list
//	iqlint -staleignores ./...
//
// or as a go vet tool, one package per invocation with full build-cache
// integration:
//
//	go vet -vettool=$(which iqlint) ./...
//
// Findings are suppressed line-by-line with
//
//	//iqlint:ignore analyzer1,analyzer2 -- reason
//
// on the offending line or the line above it. -staleignores audits those
// comments: it re-runs the suite with suppression off and flags every
// directive that no longer suppresses anything.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/cercs/iqrudp/internal/analysis"
	"github.com/cercs/iqrudp/internal/analysis/borrowcheck"
	"github.com/cercs/iqrudp/internal/analysis/errdrop"
	"github.com/cercs/iqrudp/internal/analysis/lockemit"
	"github.com/cercs/iqrudp/internal/analysis/poolcheck"
	"github.com/cercs/iqrudp/internal/analysis/timeafterloop"
	"github.com/cercs/iqrudp/internal/analysis/tracekeys"
)

var analyzers = []*analysis.Analyzer{
	borrowcheck.Analyzer,
	errdrop.Analyzer,
	lockemit.Analyzer,
	poolcheck.Analyzer,
	timeafterloop.Analyzer,
	tracekeys.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// go vet protocol: `iqlint -V=full` identifies the tool for the build
	// cache; `iqlint -flags` describes supported flags; `iqlint x.cfg`
	// analyzes one compilation unit.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("iqlint version 1\n")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return analysis.RunUnitchecker(args[0], analyzers)
	}

	fs := flag.NewFlagSet("iqlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	stale := fs.Bool("staleignores", false, "audit //iqlint:ignore comments instead of reporting findings")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: iqlint [-list] [-staleignores] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	hardErr := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "%s: %v\n", pkg.ImportPath, terr)
			hardErr = true
		}
	}
	var diags []analysis.Diagnostic
	if *stale {
		diags, err = analysis.StaleIgnores(pkgs, analyzers)
	} else {
		diags, err = analysis.Run(pkgs, analyzers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(pkgs) > 0 {
		analysis.Print(os.Stdout, pkgs[0].Fset, diags)
	}
	switch {
	case hardErr:
		return 1
	case len(diags) > 0:
		return 2
	}
	return 0
}
