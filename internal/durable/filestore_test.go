package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tmpLeft lists the temp files WriteFile left in dir.
func tmpLeft(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			left = append(left, e.Name())
		}
	}
	return left
}

// TestFileStoreWriteFileReplaces: a successful replace leaves the new
// bytes and no temp file, and appends after it land in the new file, not
// in the one it replaced (the WAL-suffix truncation path).
func TestFileStoreWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("t.wal", []byte("verified|damaged")); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFile("t.wal", []byte("verified|")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("t.wal", []byte("resumed")); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadFile("t.wal")
	if err != nil || string(got) != "verified|resumed" {
		t.Fatalf("after replace and append: %q err=%v", got, err)
	}
	if left := tmpLeft(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestFileStoreWriteFileFailure: a replace that fails returns the error,
// removes its temp file, and leaves the previous contents readable.
func TestFileStoreWriteFileFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteFile("t.snap", []byte("old")); err != nil {
		t.Fatal(err)
	}

	// the temp file cannot be created: a directory holds its name
	if err := os.Mkdir(filepath.Join(dir, "t.snap.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFile("t.snap", []byte("new")); err == nil {
		t.Fatal("replace through an uncreatable temp file succeeded")
	}
	if got, err := st.ReadFile("t.snap"); err != nil || string(got) != "old" {
		t.Fatalf("previous contents after failed create: %q err=%v", got, err)
	}
	if err := os.Remove(filepath.Join(dir, "t.snap.tmp")); err != nil {
		t.Fatal(err)
	}

	// the rename fails: the target is a non-empty directory
	target := filepath.Join(dir, "d.snap")
	if err := os.MkdirAll(filepath.Join(target, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFile("d.snap", []byte("new")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if left := tmpLeft(t, dir); len(left) != 0 {
		t.Fatalf("failed rename left temp files: %v", left)
	}
	if got, err := st.ReadFile("t.snap"); err != nil || string(got) != "old" {
		t.Fatalf("unrelated file after failed rename: %q err=%v", got, err)
	}
}
