// Package safeio writes files crash-safely: content goes to a temporary
// file in the destination directory and is renamed into place only after a
// successful flush and fsync. A reader therefore never observes a
// half-written profile or report — the path either holds the previous
// complete file or the new complete one. A target that exists and is not a
// regular file, such as a device or a named pipe, is written in place
// instead: renaming over it would replace it with a regular file.
package safeio

import (
	"io"
	"os"
	"path/filepath"

	"sigil/internal/faultinject"
)

// fullWriter hardens the io.Writer contract: a writer that accepts fewer
// bytes than given while reporting no error would let fill succeed on a
// silently incomplete file, which WriteFile would then rename into place.
// Converting the violation into io.ErrShortWrite keeps the atomicity
// guarantee even over a hostile filesystem.
type fullWriter struct{ w io.Writer }

func (fw fullWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// Points names the fault points of a File's create, sync, close and rename
// steps, so each writer built on File keeps its own.
type Points struct {
	Create, Sync, Close, Rename string
}

// File is an output file on its way to its target path; Create decides
// how it gets there.
type File struct {
	f    *os.File
	path string // the target of the rename; empty when written in place
	pts  Points
}

// Create opens the file that Commit will leave at path. A missing or
// regular-file target is written to a temporary file in its directory,
// which Commit syncs and renames over it, so path keeps its previous
// content until then. A target that exists and is not a regular file (a
// device or a named pipe) is opened and written in place, with no temporary
// file, no rename and no sync: such a target has nothing to sync, and Linux
// fails fsync on /dev/null with EINVAL. Opening a named pipe waits for its
// reader, like any writer of a pipe.
func Create(path string, pts Points) (*File, error) {
	if err := faultinject.Fire(pts.Create); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		return &File{f: f, pts: pts}, nil
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path, pts: pts}, nil
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Commit finishes the file. A temporary file is synced, closed and renamed
// over the target; if any step fails it is removed and the target keeps
// its previous content. A file written in place is closed.
func (f *File) Commit() error {
	if f.path == "" {
		if err := faultinject.Fire(f.pts.Close); err != nil {
			_ = f.f.Close() // the injected failure is the one to report
			return err
		}
		return f.f.Close()
	}
	if err := faultinject.Fire(f.pts.Sync); err != nil {
		f.Abort()
		return err
	}
	if err := f.f.Sync(); err != nil {
		f.Abort()
		return err
	}
	if err := faultinject.Fire(f.pts.Close); err != nil {
		f.Abort()
		return err
	}
	if err := f.f.Close(); err != nil {
		os.Remove(f.f.Name())
		return err
	}
	if err := faultinject.Fire(f.pts.Rename); err != nil {
		os.Remove(f.f.Name())
		return err
	}
	if err := os.Rename(f.f.Name(), f.path); err != nil {
		os.Remove(f.f.Name())
		return err
	}
	return nil
}

// Abort closes the file and removes a temporary one, leaving the target
// untouched. Bytes already written in place stay written.
func (f *File) Abort() {
	_ = f.f.Close() // the file is being thrown away with its contents
	if f.path != "" {
		os.Remove(f.f.Name())
	}
}

// filePoints are WriteFile's fault points.
var filePoints = Points{
	Create: faultinject.SafeioCreate,
	Sync:   faultinject.SafeioSync,
	Close:  faultinject.SafeioClose,
	Rename: faultinject.SafeioRename,
}

// WriteFile replaces path with whatever fill writes, through Create: a
// missing or regular-file target atomically, a device or named pipe in
// place. If fill (or any write/sync/rename step) fails, the temporary file
// is removed and the destination is left untouched.
//
// Every step is a named fault point (safeio.create, safeio.write,
// safeio.sync, safeio.close, safeio.rename): the chaos sweep drives each
// one and asserts the atomicity contract — an injected failure anywhere in
// the sequence must leave the previous file at path intact.
func WriteFile(path string, fill func(w io.Writer) error) error {
	f, err := Create(path, filePoints)
	if err != nil {
		return err
	}
	if err := fill(fullWriter{faultinject.WrapWriter(faultinject.SafeioWrite, f)}); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}
