// Package faultfs is a deterministic, seeded, in-memory vfs.FS for
// torturing the lake's crash-consistency claims. Every operation —
// create, write, sync, read, rename, remove, list — increments one
// global op counter under a single mutex, so a workload replayed against
// a fresh FS with the same seed sees the same op numbering, and a fault
// scheduled "at op k" lands on exactly the same operation every run.
//
// Three fault families:
//
//   - FailAt(k, err): op k returns err (EIO, ENOSPC, ...) and the FS
//     keeps running — an I/O error the caller is expected to surface.
//   - CrashAt(k, torn): at op k the simulated machine dies. Every file
//     is truncated to its last-synced length (torn mode instead keeps a
//     seeded-random prefix of the un-synced tail, modeling a torn sector
//     write), and from then on every operation returns ErrCrashed.
//     Recover() then hands back the surviving disk as a fresh FS, as if
//     the process restarted and re-opened the volume.
//   - SetReadError / BlockReads: dynamic read faults for serving-tier
//     tests — flip reads to failing (or parked on a gate) mid-flight,
//     then heal them.
//
// The durability model is "metadata journaled, data on fsync": creates,
// renames and removes are durable the moment they return (like a
// journaling filesystem's metadata path), while file *contents* beyond
// the last Sync are lost in a crash. That is the weakest model the
// lake's write protocol (write → fsync → append the commit record → fsync)
// claims to survive, which is exactly what the kill-point tests probe.
package faultfs

import (
	"fmt"
	"io/fs"
	"math/rand"
	"sort"
	"sync"
	"syscall"

	"btpub/internal/vfs"
)

// ErrCrashed is returned by every operation after the simulated crash
// point: the machine is down until Recover.
var ErrCrashed = fmt.Errorf("faultfs: simulated machine crashed")

// ErrIO and ErrNoSpace are ready-made injection errors wrapping the real
// errno values, so callers' errors.Is(err, syscall.EIO) checks hold.
var (
	ErrIO      = fmt.Errorf("faultfs: %w", syscall.EIO)
	ErrNoSpace = fmt.Errorf("faultfs: %w", syscall.ENOSPC)
)

// file is one simulated file: full contents plus the prefix length known
// to have reached stable storage.
type file struct {
	data      []byte
	syncedLen int
}

// FS is a deterministic fault-injecting in-memory filesystem.
type FS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	files   map[string]*file
	ops     int
	crashed bool

	failAt  map[int]error
	crashOp int // 0 = no crash scheduled
	torn    bool

	readErr error

	// gate, when non-nil, parks ReadFile until UnblockReads; blocked
	// counts the parked readers so tests can wait for them to arrive.
	gate    chan struct{}
	blocked int
}

// New returns an empty FS whose torn-write tail lengths are drawn from
// seed. The same seed and the same operation sequence reproduce the same
// surviving bytes.
func New(seed uint64) *FS {
	return &FS{
		rng:    rand.New(rand.NewSource(int64(seed))),
		files:  make(map[string]*file),
		failAt: make(map[int]error),
	}
}

// Ops returns the number of operations performed so far.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// FailAt makes operation number op (1-based) return err once.
func (f *FS) FailAt(op int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt[op] = err
}

// CrashAt schedules the simulated machine to die at operation op
// (1-based). With torn set, each file keeps a seeded-random prefix of
// its un-synced tail instead of losing it outright.
func (f *FS) CrashAt(op int, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashOp = op
	f.torn = torn
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash kills the machine now, independent of any scheduled op.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FS) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	for _, fl := range f.files {
		keep := fl.syncedLen
		if f.torn && keep < len(fl.data) {
			keep += f.rng.Intn(len(fl.data) - keep + 1)
		}
		fl.data = fl.data[:keep:keep]
		fl.syncedLen = keep
	}
}

// Recover returns the surviving disk as a fresh, healthy FS — the volume
// as the next process boot would see it. If the machine has not crashed
// yet it crashes first (dropping un-synced data), so Recover is always
// "pull the plug, reboot". Every surviving byte is considered synced.
func (f *FS) Recover() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.crashLocked()
	}
	nf := New(uint64(f.rng.Int63()))
	for name, fl := range f.files {
		data := append([]byte(nil), fl.data...)
		nf.files[name] = &file{data: data, syncedLen: len(data)}
	}
	return nf
}

// SetReadError makes every subsequent ReadFile fail with err until
// cleared with SetReadError(nil). Unlike FailAt this is not op-counted:
// it models a disk whose reads start failing at an arbitrary wall-clock
// moment, for serving-tier degraded-mode tests.
func (f *FS) SetReadError(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readErr = err
}

// BlockReads parks every subsequent ReadFile until UnblockReads.
func (f *FS) BlockReads() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gate == nil {
		f.gate = make(chan struct{})
	}
}

// UnblockReads releases readers parked by BlockReads.
func (f *FS) UnblockReads() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
}

// BlockedReads returns how many ReadFile calls are currently parked.
func (f *FS) BlockedReads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocked
}

// step charges one operation and fires any fault scheduled for it.
// Callers hold mu.
func (f *FS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if err, ok := f.failAt[f.ops]; ok {
		delete(f.failAt, f.ops)
		return err
	}
	if f.crashOp != 0 && f.ops >= f.crashOp {
		f.crashLocked()
		return ErrCrashed
	}
	return nil
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// --- vfs.FS ----------------------------------------------------------

func (f *FS) MkdirAll() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step()
}

func (f *FS) Create(name string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	fl := &file{}
	f.files[name] = fl
	return &handle{fs: f, f: fl}, nil
}

// Append opens name at its current end (creating it empty when absent).
// Like Create, the open itself is journaled metadata — durable when it
// returns — while appended bytes only survive a crash once synced.
func (f *FS) Append(name string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	fl, ok := f.files[name]
	if !ok {
		fl = &file{}
		f.files[name] = fl
	}
	return &handle{fs: f, f: fl}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	if f.gate != nil {
		gate := f.gate
		f.blocked++
		f.mu.Unlock()
		<-gate
		f.mu.Lock()
		f.blocked--
	}
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	if f.readErr != nil {
		return nil, fmt.Errorf("read %s: %w", name, f.readErr)
	}
	fl, ok := f.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), fl.data...), nil
}

func (f *FS) Size(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return 0, err
	}
	fl, ok := f.files[name]
	if !ok {
		return 0, notExist("stat", name)
	}
	return int64(len(fl.data)), nil
}

func (f *FS) ReadDir() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(f.files))
	for name := range f.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Rename is atomic and immediately durable (journaled metadata): there
// is no crash state where newName holds a mix of old and new bytes.
func (f *FS) Rename(oldName, newName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	fl, ok := f.files[oldName]
	if !ok {
		return notExist("rename", oldName)
	}
	delete(f.files, oldName)
	f.files[newName] = fl
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	if _, ok := f.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(f.files, name)
	return nil
}

func (f *FS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step()
}

// handle is an open faultfs file.
type handle struct {
	fs     *FS
	f      *file
	closed bool
}

func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if err := h.fs.step(); err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if err := h.fs.step(); err != nil {
		return err
	}
	h.f.syncedLen = len(h.f.data)
	return nil
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	// Close after a crash is tolerated (callers are unwinding), and is
	// not charged as an op: real close is not an I/O barrier, and
	// charging it would make op numbering depend on defer ordering in
	// error paths.
	return nil
}
