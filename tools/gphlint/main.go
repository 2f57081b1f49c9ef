// Command gphlint is the repository's custom static-analysis suite:
// a go vet -vettool multichecker whose three analyzers check what no
// test can see on the running code: allocation-free hot paths,
// zero-copy borrows and immutable published snapshots. Doc comments,
// byte-identical saves, sentinel-wrapped query errors, released
// resources, epoch bumps and the group-commit fsync rule are plain
// tests under go test (DESIGN.md §11).
//
// Usage (CI runs exactly this):
//
//	go build -o /tmp/gphlint ./tools/gphlint
//	go vet -vettool=/tmp/gphlint ./...
//
// The tool implements the -vettool command-line protocol: it answers
// -V=full (build-cache identity), -flags (supported flags as JSON)
// and then analyzes one compilation unit per vet.cfg file that "go
// vet" hands it. "go vet -json -vettool=gphlint" forwards -json and
// the tool emits machine-readable findings (suppressed ones flagged)
// instead of stderr text. Findings are suppressed line-by-line with
//
//	//gphlint:ignore <analyzer> <reason>
//
// placed on, or directly above, the offending line (see DESIGN.md
// §11). The exception inventory is kept honest by the report mode
//
//	gphlint -suppressions [-findings vet.json]... [dir]
//
// which lists every //gphlint:ignore site under dir and — when given
// the -json output of one or more full vet runs — fails on *stale*
// suppressions that no longer mask any diagnostic, so the inventory
// can only shrink. The framework is self-contained on the standard
// library; the repo deliberately takes no dependency on
// golang.org/x/tools.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"gph/tools/gphlint/analyzers"
	"gph/tools/gphlint/internal/lint"
)

func main() {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	var findings multiFlag
	flag.Var(versionFlag{}, "V", "print version and exit (the go vet build-cache protocol)")
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (the go vet protocol)")
	jsonOut := flag.Bool("json", false, "emit JSON diagnostics (including suppressed ones) to stdout")
	suppressions := flag.Bool("suppressions", false, "report every //gphlint:ignore site under the given directory")
	flag.Var(&findings, "findings", "with -suppressions: a -json findings file to check suppressions against (repeatable; any stale suppression fails the run)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=%s ./...\n", progname)
		fmt.Fprintf(os.Stderr, "       %s -suppressions [-findings vet.json]... [dir]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
		os.Exit(2)
	}
	flag.Parse()

	if *printFlags {
		// go vet matches its own command line against this list and
		// forwards any flag named here; -json is the only pass-through
		// gphlint accepts.
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON diagnostics to stdout"}]`)
		return
	}

	if *suppressions {
		root := "."
		if args := flag.Args(); len(args) == 1 {
			root = args[0]
		} else if len(args) > 1 {
			flag.Usage()
		}
		stale, err := lint.SuppressionReport(os.Stdout, root, findings, analyzerNames())
		if err != nil {
			log.Fatal(err)
		}
		if stale > 0 {
			os.Exit(1)
		}
		return
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
	}
	var jw io.Writer
	if *jsonOut {
		jw = os.Stdout
	}
	n, err := lint.RunUnit(args[0], analyzers.All(), jw)
	if err != nil {
		log.Fatal(err)
	}
	// In -json mode findings are data, not failures (matching
	// unitchecker): the plain gate run is what fails CI.
	if n > 0 && !*jsonOut {
		os.Exit(1)
	}
}

func analyzerNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range analyzers.All() {
		names[a.Name] = true
	}
	return names
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// versionFlag answers -V=full with a content hash of the executable,
// the identity "go vet" folds into its build cache so results are
// invalidated when the tool changes.
type versionFlag struct{}

// IsBoolFlag lets -V appear without a value in usage listings.
func (versionFlag) IsBoolFlag() bool { return true }

// String renders the zero flag value.
func (versionFlag) String() string { return "" }

// Set implements the -V=full protocol and exits.
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", filepath.Base(os.Args[0]), string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
