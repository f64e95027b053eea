// Package durable is the crash-consistent persistence layer of the serve
// daemon: a checksummed, labeled write-ahead log plus periodic snapshots,
// over a small Store abstraction with two backends — an in-memory store on
// the deterministic fault injector (the testing and battery surface) and a
// plain file store (the `turnstile serve -state DIR` surface).
//
// The design rule is the one *LIO\** and *IFC Inside* argue for: the IFC
// monitor's guarantees must hold at the level where state actually lives.
// Every record that crosses into the store carries the DIFT labels and the
// tracker integrity state of the moment it was written, every record is
// individually checksummed, and recovery is fail-closed: a WAL suffix that
// cannot be verified (torn write, bit rot, a snapshot ahead of the
// surviving log) recovers the affected tenant *poisoned* — sinks denied —
// never silently clean. A crash-restart cycle is therefore not a
// taint-laundering channel.
//
// Crash model. The store distinguishes appended bytes ("page cache") from
// synced bytes ("durable media"): Append buffers, Sync publishes. The
// in-memory backend routes every operation through the seeded fault
// injector's filesystem surface (torn writes, short reads, silent
// corruption, crash-before/after-sync), so the whole protocol — including
// its failure modes — replays byte-identically from a seed on the virtual
// clock. A crash (injected or via CrashAfterSyncs) abandons the page
// cache: only synced bytes survive, exactly like a power loss.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"turnstile/internal/faults"
)

// Store is the byte-level persistence abstraction the WAL and snapshot
// protocols run on. Append/Sync model a log file on a real filesystem:
// appended bytes are buffered and only durable after Sync returns.
// WriteFile models the atomic-replace protocol (write temp, rename) used
// for snapshots. Implementations must be safe for concurrent use by
// independent names (tenants own disjoint files).
type Store interface {
	// Append buffers data at the end of the named file.
	Append(name string, data []byte) error
	// Sync makes every buffered append to the named file durable.
	Sync(name string) error
	// ReadFile returns the durable contents of the named file.
	// A missing file is (nil, nil): an empty log, not an error.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically replaces the named file with data.
	WriteFile(name string, data []byte) error
	// List returns the existing file names, sorted.
	List() ([]string, error)
}

// memFile is one in-memory file: synced contents plus the pending page
// cache a crash would lose.
type memFile struct {
	durable []byte
	pending []byte
}

// MemStore is the deterministic in-memory Store: the backend of the
// crash-recovery battery and of every durable unit test. All fault
// behaviour — including simulated process death — comes from the optional
// injector, so a fixed seed replays the exact same torn bytes.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*memFile

	// Injector, when non-nil, decides the fate of every operation via the
	// filesystem fault surface (module "store", ops append/sync/read/write).
	Injector *faults.Injector
	// Clock, when non-nil, advances SyncTicks per durable sync — the cost
	// model of an fsync on the virtual clock.
	Clock     *faults.Clock
	SyncTicks int64

	// CrashAfterSyncs, when > 0, injects a crash immediately after the n-th
	// successful Sync across the store (1-based): the sync completes — its
	// bytes are durable — and then the process dies. This is the battery's
	// "kill the daemon at a WAL record boundary" knob; with the per-record
	// sync discipline of the WAL, sync n is exactly record boundary n.
	CrashAfterSyncs int
	syncs           int

	// CrashAfterSyncsFor is the per-file twin of CrashAfterSyncs, keyed by
	// store file name. It lets the battery kill every tenant at its own
	// k-th record boundary regardless of how the scheduler interleaves
	// tenants — the crash point stays deterministic at any -parallel.
	CrashAfterSyncsFor map[string]int
	syncsPer           map[string]int
}

// NewMemStore returns an empty in-memory store with no fault injection.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*memFile)}
}

// Syncs returns the number of successful durable syncs so far.
func (s *MemStore) Syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

func (s *MemStore) file(name string) *memFile {
	f := s.files[name]
	if f == nil {
		f = &memFile{}
		s.files[name] = f
	}
	return f
}

// decide consults the injector; a nil injector passes everything.
func (s *MemStore) decide(op, name string) faults.Decision {
	if s.Injector == nil {
		return faults.Decision{Action: faults.Pass}
	}
	return s.Injector.Decide("store", op, name)
}

// cut converts a decision fraction into a byte offset within n bytes.
func cut(frac float64, n int) int {
	c := int(frac * float64(n))
	if c < 0 {
		c = 0
	}
	if c > n {
		c = n
	}
	return c
}

// corrupt flips one bit of the byte at the fraction offset, in place.
func corrupt(frac float64, data []byte) {
	if len(data) == 0 {
		return
	}
	off := cut(frac, len(data))
	if off == len(data) {
		off--
	}
	data[off] ^= 0x40
}

// Append implements Store. A torn decision persists only a prefix —
// straight to durable media, as a crash mid-write would — and reports the
// process dead.
func (s *MemStore) Append(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.decide("append", name)
	f := s.file(name)
	switch d.Action {
	case faults.Fail:
		return fmt.Errorf("durable: append %s: %s", name, d.Err)
	case faults.Crash:
		return faults.ErrCrash
	case faults.Torn:
		f.durable = append(f.durable, f.pending...)
		f.pending = nil
		f.durable = append(f.durable, data[:cut(d.Frac, len(data))]...)
		return faults.ErrCrash
	case faults.Corrupt:
		buf := append([]byte(nil), data...)
		corrupt(d.Frac, buf)
		f.pending = append(f.pending, buf...)
		return nil
	case faults.Delay:
		if s.Clock != nil {
			s.Clock.Advance(d.Delay)
		}
	}
	f.pending = append(f.pending, data...)
	return nil
}

// Sync implements Store: publish the page cache to durable media.
func (s *MemStore) Sync(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.decide("sync", name)
	f := s.file(name)
	switch d.Action {
	case faults.Fail:
		return fmt.Errorf("durable: sync %s: %s", name, d.Err)
	case faults.Crash:
		if d.Point == "after" {
			f.durable = append(f.durable, f.pending...)
			f.pending = nil
		}
		// "before" (and unspecified): the page cache dies with the process
		return faults.ErrCrash
	case faults.Delay:
		if s.Clock != nil {
			s.Clock.Advance(d.Delay)
		}
	}
	f.durable = append(f.durable, f.pending...)
	f.pending = nil
	if s.Clock != nil && s.SyncTicks > 0 {
		s.Clock.Advance(s.SyncTicks)
	}
	s.syncs++
	if s.CrashAfterSyncs > 0 && s.syncs >= s.CrashAfterSyncs {
		return faults.ErrCrash
	}
	if len(s.CrashAfterSyncsFor) > 0 {
		if s.syncsPer == nil {
			s.syncsPer = make(map[string]int)
		}
		s.syncsPer[name]++
		if k := s.CrashAfterSyncsFor[name]; k > 0 && s.syncsPer[name] >= k {
			return faults.ErrCrash
		}
	}
	return nil
}

// ReadFile implements Store: durable contents only — recovery must never
// see bytes that would not have survived the crash.
func (s *MemStore) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	if f == nil {
		return nil, nil
	}
	out := append([]byte(nil), f.durable...)
	switch d := s.decide("read", name); d.Action {
	case faults.Fail:
		return nil, fmt.Errorf("durable: read %s: %s", name, d.Err)
	case faults.ShortRead:
		out = out[:cut(d.Frac, len(out))]
	case faults.Corrupt:
		corrupt(d.Frac, out)
	}
	return out, nil
}

// WriteFile implements Store with atomic-replace semantics: a crash during
// the write leaves the previous contents intact.
func (s *MemStore) WriteFile(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch d := s.decide("write", name); d.Action {
	case faults.Fail:
		return fmt.Errorf("durable: write %s: %s", name, d.Err)
	case faults.Crash, faults.Torn:
		// the rename never happened; the old file survives whole
		return faults.ErrCrash
	case faults.Corrupt:
		buf := append([]byte(nil), data...)
		corrupt(d.Frac, buf)
		s.files[name] = &memFile{durable: buf}
		return nil
	}
	s.files[name] = &memFile{durable: append([]byte(nil), data...)}
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n, f := range s.files {
		if len(f.durable) > 0 || len(f.pending) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Clone returns an independent deep copy of the store's files (without
// injector, clock or crash knobs). The battery clones a crashed store so
// it can prove recovery at several worker counts from the same surviving
// bytes.
func (s *MemStore) Clone() *MemStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewMemStore()
	for n, f := range s.files {
		c.files[n] = &memFile{
			durable: append([]byte(nil), f.durable...),
			pending: append([]byte(nil), f.pending...),
		}
	}
	return c
}

// Crash simulates process death outside any store operation: every page
// cache is dropped, only synced bytes survive. The battery calls this to
// model "kill -9 between I/O calls".
func (s *MemStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.files {
		f.pending = nil
	}
}

// FileStore is the real-filesystem Store behind `turnstile serve -state
// DIR`. File names map to paths under the root; Append keeps one open
// O_APPEND handle per file, Sync fsyncs it, WriteFile goes through the
// temp+rename protocol.
type FileStore struct {
	root string

	mu      sync.Mutex
	handles map[string]*os.File
}

// NewFileStore opens (creating if needed) a store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: state dir: %w", err)
	}
	return &FileStore{root: dir, handles: make(map[string]*os.File)}, nil
}

// Root returns the state directory.
func (s *FileStore) Root() string { return s.root }

// path validates a store name (tenant names become file names; no
// separators, no traversal) and joins it under the root.
func (s *FileStore) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("durable: invalid store file name %q", name)
	}
	return filepath.Join(s.root, name), nil
}

func (s *FileStore) handle(name string) (*os.File, error) {
	if f := s.handles[name]; f != nil {
		return f, nil
	}
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.handles[name] = f
	return f, nil
}

// Append implements Store.
func (s *FileStore) Append(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.handle(name)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return err
}

// Sync implements Store.
func (s *FileStore) Sync(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.handle(name)
	if err != nil {
		return err
	}
	return f.Sync()
}

// ReadFile implements Store; a missing file is an empty log.
func (s *FileStore) ReadFile(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// WriteFile implements Store by atomic replace: the bytes go to a temp
// file that is synced before it is renamed over name, and the directory
// is synced after the rename, so a power loss leaves the old file or the
// new one, never a renamed file whose bytes were lost. A step that fails
// returns its error; before the rename the temp file is removed and name
// keeps its previous contents. A cached append handle for name points at
// the replaced file, so it is closed and the next Append reopens name.
func (s *FileStore) WriteFile(name string, data []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	s.mu.Lock()
	if h := s.handles[name]; h != nil {
		delete(s.handles, name)
		err = h.Close()
	}
	s.mu.Unlock()
	if serr := syncDir(s.root); err == nil {
		err = serr
	}
	return err
}

// syncDir makes a directory's entries (a rename into it) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// List implements Store.
func (s *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Close releases the append handles.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.handles {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.handles = make(map[string]*os.File)
	return first
}
