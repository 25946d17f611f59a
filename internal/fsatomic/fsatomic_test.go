package fsatomic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// payload builds a JSON document whose size differs per writer: torn
// mixes of two payloads (a short rename landing over a longer write, or
// interleaved truncate/write on a shared temp) fail to parse, so "every
// observed read is valid JSON equal to some writer's full payload" is a
// sharp detector for the fixed-temp-name corruption.
func payload(writer, rev int) []byte {
	doc := map[string]any{
		"writer": writer,
		"rev":    rev,
		"pad":    bytes.Repeat([]byte{'x'}, 64*(writer+1)),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b
}

// TestConcurrentWritersOnePath is the regression test for the daemon's
// multi-writer scenario: before the writer moved to unique temp
// files, all writers to one path shared "path.tmp", and a writer could
// rename a temp that another writer had already truncated and was
// rewriting — publishing torn bytes. With per-writer temps every rename
// publishes a complete, synced payload, so each read must parse.
func TestConcurrentWritersOnePath(t *testing.T) {
	const writers, revs = 8, 40
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFile(path, payload(0, 0)); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	valid := make(map[string]bool)
	for w := 0; w < writers; w++ {
		for r := 0; r < revs; r++ {
			valid[string(payload(w, r))] = true
		}
	}

	// A reader races the writers, checking that every state it observes
	// is one writer's complete payload — never a torn interleaving. It
	// stops only after all writers return, so it samples the whole
	// contention window.
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			b, err := os.ReadFile(path)
			if err != nil {
				// A reader can catch the instant between unlink and link
				// on some platforms; absence is not corruption.
				if os.IsNotExist(err) {
					continue
				}
				readerDone <- err
				return
			}
			if !json.Valid(b) {
				readerDone <- fmt.Errorf("observed torn/garbage JSON (%d bytes): %q", len(b), truncate(b, 120))
				return
			}
			if !valid[string(b)] {
				readerDone <- fmt.Errorf("observed bytes matching no writer's payload: %q", truncate(b, 120))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var werr error
	var werrOnce sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < revs; r++ {
				if err := WriteFile(path, payload(w, r)); err != nil {
					werrOnce.Do(func() { werr = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if werr != nil {
		t.Fatalf("writer failed: %v", werr)
	}

	final, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if !valid[string(final)] {
		t.Fatalf("final state matches no writer's payload: %q", truncate(final, 120))
	}
	// No temp debris: error paths and completed renames both clean up.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if IsTemp(e.Name()) {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

func TestWriteFileReplacesAndChmods(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "two" {
		t.Fatalf("got %q, want %q", b, "two")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644 (CreateTemp's 0600 must not leak through)", fi.Mode().Perm())
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"))
	if err == nil {
		t.Fatal("want error writing into a missing directory")
	}
}

func TestCleanOrphans(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "simulate", "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := []string{
		filepath.Join(root, "state.json"),
		filepath.Join(sub, "deadbeef.json"),
	}
	orphans := []string{
		filepath.Join(root, "state.json.tmp-123456"),
		filepath.Join(sub, "deadbeef.json.tmp-998877"),
	}
	for _, p := range append(append([]string{}, keep...), orphans...) {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := CleanOrphans(root)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(orphans) {
		t.Fatalf("removed %d orphans, want %d", n, len(orphans))
	}
	for _, p := range keep {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("kept file %s: %v", p, err)
		}
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived", p)
		}
	}
}

func TestCleanOrphansMissingRoot(t *testing.T) {
	n, err := CleanOrphans(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatalf("missing root should be a no-op, got %v", err)
	}
	if n != 0 {
		t.Fatalf("removed %d from a missing root", n)
	}
}
