package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// urlPattern matches a URL, which a comment may cite without the file
// existing here; mdRefPattern matches a Markdown file name, optionally
// with a directory path.
var (
	urlPattern   = regexp.MustCompile(`\S+://\S*`)
	mdRefPattern = regexp.MustCompile(`[\w.\-/]*[\w\-]\.md\b`)
)

// commentMDRefs returns every Markdown reference in src's comments,
// with the line it sits on. String literals are not searched: they hold
// data (file names a test creates, say), not pointers for a reader.
func commentMDRefs(src []byte) (refs []string, lines []int) {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return refs, lines
		}
		if tok != token.COMMENT {
			continue
		}
		text := urlPattern.ReplaceAllString(lit, "") // keeps every newline
		for _, loc := range mdRefPattern.FindAllStringIndex(text, -1) {
			refs = append(refs, text[loc[0]:loc[1]])
			lines = append(lines, file.Line(pos)+strings.Count(text[:loc[0]], "\n"))
		}
	}
}

func TestCommentMDRefs(t *testing.T) {
	src := []byte("package p\n\n// See docs/FORMAT.md and\n// README.md, not https://example.com/x/Y.md.\nvar s = \"gone\" + \"doc.md\"\n/* perfbench/README.md */\n")
	refs, lines := commentMDRefs(src)
	want := []string{"docs/FORMAT.md", "README.md", "perfbench/README.md"}
	wantLines := []int{3, 4, 6}
	if strings.Join(refs, ",") != strings.Join(want, ",") {
		t.Fatalf("refs = %q, want %q", refs, want)
	}
	for i := range wantLines {
		if lines[i] != wantLines[i] {
			t.Errorf("ref %q on line %d, want %d", refs[i], lines[i], wantLines[i])
		}
	}
}

// TestGoCommentDocRefs fails when a Go comment anywhere in the
// repository cites a Markdown file that does not exist. A reference
// resolves at the repository root, under docs/, or relative to the
// citing file's directory.
func TestGoCommentDocRefs(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	var broken []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		refs, lines := commentMDRefs(src)
		for i, ref := range refs {
			if exists(filepath.Join(root, ref)) || exists(filepath.Join(root, "docs", ref)) ||
				exists(filepath.Join(filepath.Dir(path), ref)) {
				continue
			}
			rel, _ := filepath.Rel(root, path)
			broken = append(broken, fmt.Sprintf("%s:%d: %s", rel, lines[i], ref))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) > 0 {
		t.Errorf("%d Go comment(s) cite a Markdown file that does not exist:\n%s",
			len(broken), strings.Join(broken, "\n"))
	}
}
