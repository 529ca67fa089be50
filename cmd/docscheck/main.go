// Command docscheck is the repo's documentation lint, run by ci.sh:
//
//  1. Markdown link check: every relative link in README.md, DESIGN.md,
//     EXPERIMENTS.md, CHANGES.md, and docs/*.md must resolve to a file or
//     directory in the repository (anchors and external URLs are skipped).
//  2. Missing-doc check: every exported top-level identifier in sysml.go
//     and in the packages listed in docPackages must carry a doc comment.
//  3. Experiment coverage: every fusebench experiment ID must appear in
//     EXPERIMENTS.md, so the reproduction manual cannot silently fall
//     behind the harness.
//  4. CI gate coverage: every gate of bench.Gates must have a matching
//     EXPERIMENTS.md section heading, and each of its checks a row of the
//     "CI gate summary" table.
//  5. Cited files: every backticked file path in README.md, DESIGN.md,
//     EXPERIMENTS.md and docs/*.md must name a file of the repository.
//
// Exit status 1 with one line per violation; silent success otherwise.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"

	"sysml/internal/bench"
)

// docPackages are the directories whose exported identifiers must be
// documented, beyond the sysml.go facade.
var docPackages = []string{".", "internal/dist", "internal/codegen", "internal/obs"}

// linkRe matches inline markdown links [text](target); images share the
// syntax and are checked the same way.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link target in file exists, resolved
// against the file's own directory.
func checkLinks(file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", file, err)}
	}
	var bad []string
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		target = strings.SplitN(target, "#", 2)[0] // strip section anchor
		if target == "" {
			continue
		}
		p := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(p); err != nil {
			bad = append(bad, fmt.Sprintf("%s: broken link %q", file, m[1]))
		}
	}
	return bad
}

// checkDocs reports exported top-level identifiers without doc comments in
// the package directory dir (test files skipped). A doc comment on the
// enclosing GenDecl covers its specs, matching godoc's resolution.
func checkDocs(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var bad []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		bad = append(bad, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Methods count too: an exported method on an exported
					// receiver is API surface.
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "value", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether f is a plain function or a method on an
// exported receiver type; methods on unexported types are not API surface.
func exportedRecv(f *ast.FuncDecl) bool {
	if f.Recv == nil || len(f.Recv.List) == 0 {
		return true
	}
	t := f.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkExperimentCoverage requires every fusebench -exp ID to appear in
// EXPERIMENTS.md.
func checkExperimentCoverage() []string {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return []string{fmt.Sprintf("EXPERIMENTS.md: %v", err)}
	}
	var bad []string
	for _, e := range bench.Experiments {
		if !strings.Contains(string(data), e.ID) {
			bad = append(bad, fmt.Sprintf("EXPERIMENTS.md: experiment %q undocumented", e.ID))
		}
	}
	return bad
}

// checkCIGateCoverage cross-checks the gate registry against EXPERIMENTS.md:
// each gate needs its own section heading (the "### `id` — ..." convention),
// and each of its checks a row "| ... | <check> | ..." of the "## CI gate
// summary" table. This is what keeps the threshold table from drifting when
// a check lands.
func checkCIGateCoverage() []string {
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return []string{fmt.Sprintf("EXPERIMENTS.md: %v", err)}
	}
	// The gate table: the "## CI gate summary" section up to the next H2.
	table := string(exp)
	if i := strings.Index(table, "## CI gate summary"); i >= 0 {
		table = table[i:]
		if j := strings.Index(table[2:], "\n## "); j >= 0 {
			table = table[:2+j]
		}
	} else {
		return []string{`EXPERIMENTS.md: missing "## CI gate summary" section`}
	}
	var bad []string
	for _, g := range bench.Gates {
		headingRe := regexp.MustCompile("(?m)^#{1,6} .*`" + regexp.QuoteMeta(g.ID) + "`")
		if !headingRe.Match(exp) {
			bad = append(bad, fmt.Sprintf("EXPERIMENTS.md: no section heading for gate %q", g.ID))
		}
		for _, c := range g.Checks {
			if !strings.Contains(table, "| "+c+" |") {
				bad = append(bad, fmt.Sprintf("EXPERIMENTS.md: check %q of gate %q missing from the CI gate summary table", c, g.ID))
			}
		}
	}
	return bad
}

// citedRe matches a backticked token that names a file by its extension.
var citedRe = regexp.MustCompile("`([A-Za-z0-9_./*-]+\\.(go|md|sh|s|txt|json|jsonl|mod|dml))`")

// checkCitedPaths requires every file the manuals cite in backticks to
// exist: as the path itself, or as the tail of one (the text shortens
// `internal/cplan/lower.go` to `cplan/lower.go` or `lower.go`). Files the
// build generates (.gitignore), absolute paths, and bare data-file names,
// which examples let the user choose, are not repository files.
func checkCitedPaths(files []string) []string {
	var repo []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir():
			repo = append(repo, "/"+filepath.ToSlash(p))
		}
		return nil
	})
	ignore, _ := os.ReadFile(".gitignore")
	var bad []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", file, err)}
		}
	cited:
		for _, m := range citedRe.FindAllStringSubmatch(string(data), -1) {
			tok, source := m[1], m[2] != "json" && m[2] != "jsonl"
			if strings.HasPrefix(tok, "/") || (!source && !strings.Contains(tok, "/")) {
				continue
			}
			for _, pat := range strings.Fields(string(ignore)) {
				if ok, _ := path.Match(pat, path.Base(tok)); ok {
					continue cited
				}
			}
			if g, _ := filepath.Glob(tok); strings.Contains(tok, "*") && len(g) > 0 {
				continue
			}
			for _, p := range repo {
				if strings.HasSuffix(p, "/"+path.Clean(tok)) {
					continue cited
				}
			}
			bad = append(bad, fmt.Sprintf("%s: cited file %q does not exist", file, tok))
		}
	}
	return bad
}

func main() {
	var bad []string
	docs, _ := filepath.Glob("docs/*.md")
	for _, f := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md"}, docs...) {
		bad = append(bad, checkLinks(f)...)
	}
	for _, dir := range docPackages {
		bad = append(bad, checkDocs(dir)...)
	}
	bad = append(bad, checkExperimentCoverage()...)
	bad = append(bad, checkCIGateCoverage()...)
	bad = append(bad, checkCitedPaths(append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...))...)
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, b)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(bad))
		os.Exit(1)
	}
}
