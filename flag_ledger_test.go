package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefs are the flag package's flag-registering functions and FlagSet
// methods. Those ending in "Var" take the flag name as their second
// argument; the others take it first.
var flagDefs = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true, "Func": true, "BoolFunc": true,
	"BoolVar": true, "IntVar": true, "Int64Var": true, "UintVar": true, "Uint64Var": true,
	"Float64Var": true, "StringVar": true, "DurationVar": true, "TextVar": true, "Var": true,
}

// TestFlagLedgerCoversEveryFlag cross-checks the static scan of
// scripts/flag_ledger.sh, which reads a flag only when its defining call
// and its literal name share a line. It parses every CLI under cmd/ and
// fails on a defined flag that testdata/flag_ledger.txt does not list, on
// a ledger line for a flag that is no longer defined, and, failing closed,
// on every flag registration it cannot read: a name that is not a string
// literal, a flag set that leaves the function that made it, a call it
// cannot tell from a flag definition, or a non-test package outside cmd/
// that imports flag.
func TestFlagLedgerCoversEveryFlag(t *testing.T) {
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no CLI sources under cmd/ (%v)", err)
	}
	defined := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		scanFlags(t, fset, f, filepath.Base(filepath.Dir(path)), defined)
	}

	ledger := map[string]bool{}
	data, err := os.ReadFile("testdata/flag_ledger.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, _, ok := strings.Cut(line, " -- "); ok && !strings.HasPrefix(line, "#") {
			ledger[key] = true
		}
	}
	for _, key := range sortedKeys(defined) {
		if !ledger[key] {
			t.Errorf("%s is defined but not in testdata/flag_ledger.txt; regenerate it with sh scripts/flag_ledger.sh", key)
		}
	}
	for _, key := range sortedKeys(ledger) {
		if !defined[key] {
			t.Errorf("testdata/flag_ledger.txt lists %s, which no CLI defines", key)
		}
	}

	// A helper package that registers flags would do so where neither
	// scan looks.
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"flag"` {
				t.Errorf("%s imports flag; the flag ledger reads flag definitions only under cmd/", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scanFlags adds the "<cmd>[:<set>]:-<name>" key of every flag that file f
// of command cmd defines to defined. A flag set is named by the first
// argument of the flag.NewFlagSet call whose result a function assigns.
func scanFlags(t *testing.T, fset *token.FileSet, f *ast.File, cmd string, defined map[string]bool) {
	t.Helper()
	flagPkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			flagPkg = "flag"
			if imp.Name != nil {
				flagPkg = imp.Name.Name
			}
		}
	}
	if flagPkg == "" {
		return
	}
	pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
	isFlagPkg := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == flagPkg
	}
	sets := map[string]string{} // flag-set variable -> subcommand name
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			sets = map[string]string{}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !isFlagPkg(sel.X) || sel.Sel.Name != "NewFlagSet" {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				name, lit := stringLit(call.Args[0])
				if !ok || !lit {
					t.Errorf("%s: flag.NewFlagSet needs a literal name and a plain variable for the flag ledger", pos(call))
					continue
				}
				sets[id.Name] = name
			}
		case *ast.SelectorExpr:
			if isFlagPkg(n.X) && (n.Sel.Name == "FlagSet" || n.Sel.Name == "CommandLine") {
				t.Errorf("%s: flag.%s lets flags be registered where the flag ledger cannot see them", pos(n), n.Sel.Name)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := r.(*ast.Ident); ok && sets[id.Name] != "" {
					t.Errorf("%s: flag set %s leaves the function that made it", pos(r), id.Name)
				}
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				if id, ok := a.(*ast.Ident); ok && sets[id.Name] != "" {
					t.Errorf("%s: flag set %s is passed to another function", pos(a), id.Name)
				}
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefs[sel.Sel.Name] {
				return true
			}
			prefix := ""
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == flagPkg {
				prefix = cmd + ":-"
			} else if ok && sets[id.Name] != "" {
				prefix = cmd + ":" + sets[id.Name] + ":-"
			} else if len(n.Args) >= 3 {
				t.Errorf("%s: cannot tell whether this %s call defines a flag", pos(n), sel.Sel.Name)
				return true
			} else {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg >= len(n.Args) {
				t.Errorf("%s: %s call with too few arguments", pos(n), sel.Sel.Name)
				return true
			}
			name, lit := stringLit(n.Args[arg])
			if !lit {
				t.Errorf("%s: flag name is not a string literal; the flag ledger cannot read it", pos(n))
				return true
			}
			defined[prefix+name] = true
		}
		return true
	})
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
