// Package fsatomic is the suite's one crash-atomic file writer. Every
// layer that persists state — above all the pipeline's on-disk
// simulate tier — writes through WriteFile, so the
// durability discipline (unique temp, fsync data, rename, fsync parent
// directory) lives in exactly one place instead of accreting weaker
// copies per subsystem.
//
// The writer must hold up under two distinct adversaries:
//
//   - a SIGKILL or machine crash at any instant, which must leave either
//     the old complete file or the new complete file (the soak crash
//     torture exercises this); and
//   - CONCURRENT writers to the same path — the situation a multi-client
//     daemon creates — which must never be able to rename each other's
//     half-written temp files into place. A fixed "path+.tmp" temp name
//     fails exactly here: writer B truncates and rewrites the temp while
//     writer A is between its fsync and its rename, and A then renames
//     B's torn bytes into place. os.CreateTemp gives every writer its
//     own temp, so each rename publishes only bytes that writer fully
//     wrote and synced; concurrent writers race only on which COMPLETE
//     file wins the rename, which is the correct last-writer-wins.
package fsatomic

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// tempInfix marks this package's temp files: a writer for "name" creates
// "name.tmp-<random>" in the same directory. CleanOrphans matches it.
const tempInfix = ".tmp-"

// WriteFile writes data to path atomically: unique temp file in the same
// directory, write, fsync, rename over path, fsync the parent directory.
// A crash at any instant leaves either the old or the new complete file;
// concurrent writers to one path each publish a complete file. The final
// file has mode 0644 regardless of umask-tightened temp permissions.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// Any failure from here on removes the temp: orphans should only ever
	// come from a crash, not from an error return.
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	// Without the fsync, rename-over-old is atomic against crashes of the
	// process but not of the machine: the rename can hit disk before the
	// data blocks, leaving a validly-named file of garbage.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; published files keep the historical 0644.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename itself lives in the directory: sync it so the new name
	// survives a machine crash too. Platforms that cannot open or sync a
	// directory degrade to the rename's own durability.
	return syncDir(dir)
}

// syncDir fsyncs a directory, best-effort on platforms that refuse.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Directory fsync is not portable (and some filesystems reject
		// it); the rename is still crash-atomic for the process.
		return nil
	}
	return nil
}

// IsTemp reports whether name (a base name, not a path) is one of this
// package's temp files.
func IsTemp(name string) bool {
	return strings.Contains(name, tempInfix)
}

// CleanOrphans walks root and removes every temp file a crashed writer
// left behind, returning how many were removed. A long-lived daemon runs
// it once at startup over its state directory: orphans are dead weight —
// no writer will ever rename them — and a bounded store should not leak
// disk across crash/restart cycles. Files still being written by a LIVE
// writer are at risk only if two processes share one state directory,
// which the daemon's single-writer ownership of -cache-dir rules out.
func CleanOrphans(root string) (int, error) {
	removed := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == root {
				return filepath.SkipAll
			}
			return err
		}
		if d.IsDir() || !IsTemp(d.Name()) {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		removed++
		return nil
	})
	return removed, err
}
