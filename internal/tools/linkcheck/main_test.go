package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Operating dpserve":                     "operating-dpserve",
		"Serving: `dpserve`":                    "serving-dpserve",
		"  Kind 3: sharded manifest  ":          "kind-3-sharded-manifest",
		"The `dpgridv2` binary synopsis format": "the-dpgridv2-binary-synopsis-format",
		"A (parenthesized) heading":             "a-parenthesized-heading",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunGoodLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Other Doc\n\n## Deep Section\n")
	doc := write(t, dir, "doc.md", strings.Join([]string{
		"# Title",
		"",
		"## Some Section",
		"",
		"[in-file](#some-section)",
		"[sibling](other.md)",
		"[sibling anchor](other.md#deep-section)",
		"[external](https://example.com/definitely-404)",
		"",
		"```sh",
		"[not a link](nonexistent.md) inside a code fence",
		"```",
	}, "\n"))
	var out strings.Builder
	if code := run([]string{doc}, &out); code != 0 {
		t.Fatalf("run = %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "4 link(s)") {
		t.Errorf("expected 4 links checked, got:\n%s", out.String())
	}
}

func TestRunBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Other\n")
	doc := write(t, dir, "doc.md", strings.Join([]string{
		"# Title",
		"[missing file](gone.md)",
		"[missing anchor](#nope)",
		"[missing cross anchor](other.md#nope)",
	}, "\n"))
	var out strings.Builder
	if code := run([]string{doc}, &out); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"doc.md:2: target gone.md does not exist",
		"doc.md:3: no heading for anchor #nope",
		"doc.md:4: other.md has no heading for anchor #nope",
		"3 broken link(s)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDuplicateHeadingAnchors(t *testing.T) {
	md := []byte("# Setup\n\ntext\n\n# Setup\n\n# Setup\n")
	for _, frag := range []string{"setup", "setup-1", "setup-2"} {
		if !hasAnchor(md, frag) {
			t.Errorf("anchor #%s missing (GitHub numbers repeated headings)", frag)
		}
	}
	if hasAnchor(md, "setup-3") {
		t.Error("anchor #setup-3 should not exist")
	}
}

func TestRunMissingInput(t *testing.T) {
	var out strings.Builder
	if code := run([]string{filepath.Join(t.TempDir(), "absent.md")}, &out); code != 1 {
		t.Fatalf("run on absent file = %d, want 1", code)
	}
	if code := run(nil, &out); code != 2 {
		t.Fatal("run with no args should be usage error")
	}
}

// TestRepositoryDocs runs the checker over the repo's real docs, so a
// broken link fails `go test ./...` locally, not just the CI docs job.
func TestRepositoryDocs(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	docs := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "docs", "ARCHITECTURE.md"),
		filepath.Join(root, "docs", "FORMAT.md"),
		filepath.Join(root, "docs", "ANALYZERS.md"),
		filepath.Join(root, "perfbench", "README.md"),
	}
	for _, d := range docs {
		if _, err := os.Stat(d); err != nil {
			t.Fatalf("doc missing: %v", err)
		}
	}
	var out strings.Builder
	if code := run(docs, &out); code != 0 {
		t.Fatalf("repository docs have broken links:\n%s", out.String())
	}
}
