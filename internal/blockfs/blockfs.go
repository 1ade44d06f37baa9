// Package blockfs is the backwards-compatibility path of the BlueDBM
// software stack (paper §4): a conventional file system that treats
// the FTL's logical block space as a disk, the way ext2/3/4 or a
// database would sit on the driver-level FTL. It is deliberately
// flash-oblivious — bitmap allocation, in-place overwrites, and
// on-device metadata (inode table, allocation bitmap, periodic
// journal commits) written through the block device — which is
// exactly what makes the FTL underneath do extra work; the ablation
// benchmarks compare its end-to-end write amplification against the
// flash-aware rfs package, which keeps the equivalent state in host
// memory as its own page mapping (paper §4).
package blockfs

import (
	"errors"
	"fmt"
	"sort"
)

// Block-FS errors.
var (
	ErrExists    = errors.New("blockfs: file already exists")
	ErrNotFound  = errors.New("blockfs: file not found")
	ErrNoSpace   = errors.New("blockfs: volume full")
	ErrBadOffset = errors.New("blockfs: page offset out of range")
)

// Device is the logical block device the file system formats: a
// per-card FTL (*ftl.FTL) or a QoS-classed stream of the cluster-wide
// logical volume (*volume.Stream) — either way a flat page space the
// FS treats like a disk, which is the point of the ablation.
type Device interface {
	LogicalPages() int
	PageSize() int
	Read(lpn int, cb func(data []byte, err error))
	Write(lpn int, data []byte, cb func(err error))
	Trim(lpn int) error
}

// journalEvery is the metadata commit interval: like a disk file
// system's journal flush, every Nth in-place data write also rewrites
// the file's inode-table page through the device (mtime, journal
// commit record). Allocation changes (appends, removes) write
// metadata unconditionally — a disk FS must persist its allocation
// state. This is the §4 "small random metadata writes" behaviour that
// a conventional stack pushes through the FTL and RFS keeps in host
// memory as its own mapping.
const journalEvery = 8

// FS is a conventional file system over a logical block device.
type FS struct {
	dev Device

	bitmap []bool // logical page allocation
	files  map[string]*inode
	free   int

	formatLPN   int // superblock + allocation bitmap page
	metaBuf     []byte
	sinceCommit int

	// MetaWrites counts metadata page writes issued through the
	// device (inode table, allocation bitmap, journal commits).
	MetaWrites int64
}

type inode struct {
	name  string
	pages []int // logical page numbers, in file order
	meta  int   // LPN of this file's inode-table page
}

// New formats a volume on a block device: the first logical page
// holds the superblock and allocation bitmap, written at format time
// like any disk file system would.
func New(dev Device) *FS {
	n := dev.LogicalPages()
	fs := &FS{
		dev:     dev,
		bitmap:  make([]bool, n),
		files:   make(map[string]*inode),
		free:    n,
		metaBuf: make([]byte, dev.PageSize()),
	}
	if lpn, err := fs.alloc(); err == nil {
		fs.formatLPN = lpn
		fs.writeMeta(lpn, nil)
	}
	return fs
}

// writeMeta issues one metadata page write; cb may be nil
// (fire-and-forget, the way write-back metadata caching behaves).
func (fs *FS) writeMeta(lpn int, cb func(error)) {
	fs.MetaWrites++
	if cb == nil {
		cb = func(error) {}
	}
	fs.dev.Write(lpn, fs.metaBuf, cb)
}

// alloc grabs the lowest free logical page — the disk-style locality
// heuristic that means nothing on flash.
func (fs *FS) alloc() (int, error) {
	if fs.free == 0 {
		return 0, ErrNoSpace
	}
	for i, used := range fs.bitmap {
		if !used {
			fs.bitmap[i] = true
			fs.free--
			return i, nil
		}
	}
	return 0, ErrNoSpace
}

// File is an open file.
type File struct {
	fs *FS
	nd *inode
}

// Create makes an empty file, allocating and writing its inode-table
// page.
func (fs *FS) Create(name string) (*File, error) {
	if _, dup := fs.files[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	meta, err := fs.alloc()
	if err != nil {
		return nil, err
	}
	nd := &inode{name: name, meta: meta}
	fs.files[name] = nd
	fs.writeMeta(meta, nil)
	return &File{fs: fs, nd: nd}, nil
}

// Open returns an existing file.
//
//simlint:allow unused (the conventional file system of the paper's §4, whose file API blockfs_test runs)
func (fs *FS) Open(name string) (*File, error) {
	nd, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{fs: fs, nd: nd}, nil
}

// Remove deletes a file and trims its logical pages, persisting the
// allocation change (bitmap page) like a disk FS.
//
//simlint:allow unused (the conventional file system of the paper's §4, whose file API blockfs_test runs)
func (fs *FS) Remove(name string) error {
	nd, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for _, lpn := range nd.pages {
		fs.bitmap[lpn] = false
		fs.free++
		// A good citizen trims; the FTL reclaims the page lazily.
		_ = fs.dev.Trim(lpn)
	}
	fs.bitmap[nd.meta] = false
	fs.free++
	_ = fs.dev.Trim(nd.meta)
	delete(fs.files, name)
	fs.writeMeta(fs.formatLPN, nil)
	return nil
}

// List returns all file names, sorted.
//
//simlint:allow unused (the conventional file system of the paper's §4, whose file API blockfs_test runs)
func (fs *FS) List() []string {
	var out []string
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PageLPN returns the device LPN backing page idx — the FIBMAP-style
// query that lets instrumentation address a file's pages through the
// block device directly. Unlike rfs physical addresses it never goes
// stale: blockfs overwrites in place, so a page keeps its LPN for the
// file's lifetime.
func (f *File) PageLPN(idx int) (int, error) {
	if idx < 0 || idx >= len(f.nd.pages) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(f.nd.pages))
	}
	return f.nd.pages[idx], nil
}

// AppendPage adds a page at the end of the file. The allocation
// changed, so the file's inode-table page is rewritten behind the
// data — two device writes per appended page, the conventional-FS tax
// RFS avoids by keeping its mapping in host memory.
func (f *File) AppendPage(data []byte, cb func(err error)) {
	lpn, err := f.fs.alloc()
	if err != nil {
		cb(err)
		return
	}
	f.nd.pages = append(f.nd.pages, lpn)
	f.fs.dev.Write(lpn, data, func(werr error) {
		if werr != nil {
			cb(werr)
			return
		}
		f.fs.writeMeta(f.nd.meta, cb)
	})
}

// WritePage overwrites page idx in place — the disk idiom that forces
// the FTL to remap and eventually garbage-collect — with a journal
// commit (inode-table rewrite) every journalEvery-th write.
func (f *File) WritePage(idx int, data []byte, cb func(err error)) {
	if idx < 0 || idx > len(f.nd.pages) {
		cb(fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(f.nd.pages)))
		return
	}
	if idx == len(f.nd.pages) {
		f.AppendPage(data, cb)
		return
	}
	f.fs.sinceCommit++
	commit := f.fs.sinceCommit >= journalEvery
	if commit {
		f.fs.sinceCommit = 0
	}
	f.fs.dev.Write(f.nd.pages[idx], data, func(werr error) {
		if werr != nil || !commit {
			cb(werr)
			return
		}
		f.fs.writeMeta(f.nd.meta, cb)
	})
}

// ReadPage fetches page idx.
//
//simlint:allow unused (the conventional file system of the paper's §4, whose file API blockfs_test runs)
func (f *File) ReadPage(idx int, cb func(data []byte, err error)) {
	if idx < 0 || idx >= len(f.nd.pages) {
		cb(nil, fmt.Errorf("%w: %d of %d", ErrBadOffset, idx, len(f.nd.pages)))
		return
	}
	f.fs.dev.Read(f.nd.pages[idx], cb)
}
