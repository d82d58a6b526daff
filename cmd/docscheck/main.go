// Command docscheck enforces the repository's documentation bar in CI:
//
//   - every Go package (including commands) carries a package comment, so
//     `go doc` explains how each piece maps onto the DAC 2015 methodology;
//   - every relative link in the repository's markdown files resolves to a
//     file that actually exists, so the docs never rot as code moves;
//   - every exported identifier in internal/place — the user-facing criterion
//     subsystem — carries a doc comment;
//   - every `-criterion <value>` mentioned in the markdown docs parses via
//     the real place.ParseCriterion, so README/OPERATIONS examples cannot
//     drift from the registry;
//   - every `voltsense-*/v*` artifact format name the docs mention is one the
//     code actually writes (predictor, prior, delta), so serialization docs
//     cannot invent or misspell a format;
//   - every `-flag` that follows a command name (voltserved, voltbench, …) in
//     a markdown example or sentence exists in that command's real flag set,
//     extracted from cmd/*/main.go by AST — stale `-prior`/`-calibrate-*`
//     style examples fail CI instead of misleading operators.
//
// It prints one line per violation and exits non-zero if any were found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"voltsense/internal/core"
	"voltsense/internal/place"
	"voltsense/internal/transfer"
)

func main() {
	problems, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problems\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: packages documented, markdown links resolve, place exports documented, -criterion examples valid, artifact format names valid, command flags in docs exist")
}

// check walks root and returns every violation, deterministically ordered.
func check(root string) ([]string, error) {
	var problems []string
	pkgDocs := make(map[string]bool) // dir → has a package comment
	var mdFiles []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".md"):
			mdFiles = append(mdFiles, path)
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			dir := filepath.Dir(path)
			if _, seen := pkgDocs[dir]; !seen {
				pkgDocs[dir] = false
			}
			f, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if perr != nil {
				return fmt.Errorf("%s: %w", path, perr)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				pkgDocs[dir] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	dirs := make([]string, 0, len(pkgDocs))
	for dir := range pkgDocs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !pkgDocs[dir] {
			problems = append(problems, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}

	cmdFlags, err := commandFlagSets(root)
	if err != nil {
		return nil, err
	}
	sort.Strings(mdFiles)
	for _, md := range mdFiles {
		ps, err := checkMarkdown(md)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
		ps, err = checkCriterionValues(md)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
		ps, err = checkFormatNames(md)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
		ps, err = checkCommandFlags(md, cmdFlags)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}

	placeDir := filepath.Join(root, "internal", "place")
	if _, err := os.Stat(placeDir); err == nil {
		ps, err := checkGodoc(placeDir)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	return problems, nil
}

// checkGodoc parses every non-test Go file in dir and reports exported
// top-level identifiers — types, functions, methods, consts and vars — that
// carry no doc comment. A doc comment on a grouped declaration covers every
// spec inside it.
func checkGodoc(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					problems = append(problems, fmt.Sprintf("%s: exported %s %s has no doc comment", path, kind, d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							problems = append(problems, fmt.Sprintf("%s: exported type %s has no doc comment", path, s.Name.Name))
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil {
								problems = append(problems, fmt.Sprintf("%s: exported value %s has no doc comment", path, n.Name))
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// criterionRe matches `-criterion value` and `-criterion=value` mentions in
// prose and shell examples alike. The leading guard keeps hyphenated words
// like "per-criterion" from matching as the flag.
var criterionRe = regexp.MustCompile(`(?:^|[^[:alnum:]-])-criterion[ =]([A-Za-z0-9_-]+)`)

// checkCriterionValues verifies that every -criterion value a markdown file
// mentions parses through the real registry, fenced code blocks included —
// command examples are exactly where stale names hide.
func checkCriterionValues(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for ln, line := range strings.Split(string(data), "\n") {
		for _, m := range criterionRe.FindAllStringSubmatch(line, -1) {
			if _, err := place.ParseCriterion(m[1]); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: -criterion value %q is not a registered criterion", path, ln+1, m[1]))
			}
		}
	}
	return problems, nil
}

// formatRe matches artifact format-name tokens like voltsense-prior/v1.
var formatRe = regexp.MustCompile(`voltsense-[a-z]+/v[0-9]+`)

// knownFormats is every artifact format the code actually serializes or
// still loads, sourced from the constants the writers and loaders use — not
// re-typed strings.
var knownFormats = map[string]bool{
	core.PredictorFormat:   true,
	core.PredictorFormatV1: true, // legacy, load-only
	transfer.PriorFormat:   true,
	transfer.DeltaFormat:   true,
}

// checkFormatNames verifies that every voltsense-*/v* format name a markdown
// file mentions — in prose or inside fenced JSON examples — is one the code
// writes or loads. A misspelled or invented format in serialization docs is
// exactly the kind of rot that survives review.
func checkFormatNames(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for ln, line := range strings.Split(string(data), "\n") {
		for _, m := range formatRe.FindAllString(line, -1) {
			if !knownFormats[m] {
				problems = append(problems, fmt.Sprintf("%s:%d: artifact format %q is not one the code writes", path, ln+1, m))
			}
		}
	}
	return problems, nil
}

// flagMethods are the flag.FlagSet definition methods whose first argument
// names a flag.
var flagMethods = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Float64": true, "Duration": true,
}

// commandFlagSets extracts each cmd/<name> binary's real flag set by walking
// the AST of its non-test Go files for flag-definition calls with a
// string-literal name (flag.String("prior", …) and friends). Commands that
// define no flags are omitted, so doc mentions of them are not flag-checked.
func commandFlagSets(root string) (map[string]map[string]bool, error) {
	cmdRoot := filepath.Join(root, "cmd")
	entries, err := os.ReadDir(cmdRoot)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(cmdRoot, e.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool)
		for _, fe := range files {
			name := fe.Name()
			if fe.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			af, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			ast.Inspect(af, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagMethods[sel.Sel.Name] || len(call.Args) == 0 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if flagName, err := strconv.Unquote(lit.Value); err == nil && flagName != "" {
					set[flagName] = true
				}
				return true
			})
		}
		if len(set) > 0 {
			out[e.Name()] = set
		}
	}
	return out, nil
}

// flagTokenRe matches a Go-style single-dash flag token, capturing the flag
// name and dropping any =value suffix. Double-dash tokens are left alone:
// this repo's commands are documented single-dash, and `--always`-style
// options belong to foreign tools inside command substitutions.
var flagTokenRe = regexp.MustCompile(`^-([A-Za-z][A-Za-z0-9-]*)`)

// inlineCodeRe matches inline markdown code spans: `voltserved -prior …`.
var inlineCodeRe = regexp.MustCompile("`([^`]+)`")

// checkCommandFlags verifies that every -flag token following a command name
// in a markdown code context — a fenced block line or an inline code span —
// names a flag that command really defines. Prose is not scanned: changelog
// sentences mention flags of many tools at once and cannot be attributed.
// Backslash-continued fence lines are joined so multi-line invocations check
// as one command, and a later command name rebinds attribution, so piped
// `voltbench … | benchreport -compare` examples check each segment against
// its own flag set.
func checkCommandFlags(path string, cmds map[string]map[string]bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	var problems []string
	inFence := false
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		ln := i
		if inFence {
			text := line
			for strings.HasSuffix(strings.TrimRight(text, " \t"), `\`) && i+1 < len(lines) {
				text = strings.TrimSuffix(strings.TrimRight(text, " \t"), `\`) + " " + lines[i+1]
				i++
			}
			problems = append(problems, scanInvocation(path, ln, text, cmds)...)
			continue
		}
		for _, m := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			problems = append(problems, scanInvocation(path, ln, m[1], cmds)...)
		}
	}
	return problems, nil
}

// scanInvocation attributes -flag tokens in one code snippet to the most
// recently named command and reports flags that command does not define.
func scanInvocation(path string, ln int, text string, cmds map[string]map[string]bool) []string {
	var problems []string
	var set map[string]bool
	var cmd string
	for _, field := range strings.Fields(text) {
		field = strings.Trim(field, "`\"'(),.;:|")
		base := field
		if j := strings.LastIndexByte(base, '/'); j >= 0 {
			base = base[j+1:]
		}
		if s, ok := cmds[base]; ok {
			set, cmd = s, base
			continue
		}
		if set == nil || strings.HasPrefix(field, "--") {
			continue
		}
		if m := flagTokenRe.FindStringSubmatch(field); m != nil && !set[m[1]] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no flag -%s", path, ln+1, cmd, m[1]))
		}
	}
	return problems
}

// linkRe matches inline markdown links and images: [text](target).
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdown verifies that every relative link target in one markdown
// file exists. External schemes and pure in-page anchors are skipped;
// fenced code blocks are ignored so shell examples don't false-positive.
func checkMarkdown(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for ln, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", path, ln+1, m[1]))
			}
		}
	}
	return problems, nil
}
