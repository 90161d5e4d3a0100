//go:build unix

package safeio

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// openFIFO makes a named pipe at path and opens its read end without
// waiting for a writer, so a writer that opens it later does not wait
// either. Reads give up after ten seconds, so a writer that never came
// fails the test instead of hanging it.
func openFIFO(t *testing.T, path string) *os.File {
	t.Helper()
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	if err := r.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWriteFileIntoNamedPipe: a named pipe as the target is written in
// place. Its reader gets the bytes, the path is still a pipe afterwards and
// no temporary file is left; renaming a temporary file over the path would
// have replaced the pipe with a regular file that its reader never sees.
func TestWriteFileIntoNamedPipe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.fifo")
	r := openFIFO(t, path)
	want := "a profile, smaller than the pipe's buffer\n"
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("the pipe's reader got %q, want %q", got, want)
	}
	fi, err := os.Lstat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("%s is %v after the write, want a named pipe", path, fi.Mode())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %v, want the pipe alone", entries)
	}
}
