package history

// Catchup file I/O: the archive side of the network catchup protocol. A
// serving node reads raw framed archive files in bounded chunks (pread, no
// state held between chunks); a catching-up node appends fetched chunks to
// .part files in its own archive and commits each file only after the
// whole-file integrity check passes — the same framing check a local read
// performs, so a fetched archive is indistinguishable from a locally
// written one. Resume after a dropped connection is "request at the .part
// size"; no server cooperation is needed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"stellar/internal/stellarcrypto"
)

// MaxChunkLen bounds a single catchup chunk so one response never
// monopolizes a TCP connection or a peer's memory.
const MaxChunkLen = 128 << 10

// partSuffix marks an in-progress fetch; .part files are invisible to
// normal archive reads and swept by DiscardPart or a fresh fetch.
const partSuffix = ".part"

// relPathPattern whitelists the archive-relative paths a peer may request
// or a fetcher may write: exactly the four known subdirectories with their
// known file-name shapes, no separators beyond the one, no traversal.
var relPathPattern = regexp.MustCompile(
	`^(headers/\d{8}\.xdr|txsets/\d{8}\.xdr|checkpoints/(\d{8}\.xdr|latest)|buckets/[0-9a-f]{64}\.bucket)$`)

// ValidRelPath reports whether rel is a well-formed archive-relative path.
// Both sides enforce it: the server refuses to read outside the archive,
// and the fetcher refuses to let a malicious server write outside it.
func ValidRelPath(rel string) bool {
	return relPathPattern.MatchString(rel)
}

// HeaderPath returns the archive-relative path holding the header for seq,
// or ok=false if absent.
func (a *Archive) HeaderPath(seq uint32) (string, bool) {
	return a.probe(fmt.Sprintf("headers/%08d.xdr", seq))
}

// TxSetPath returns the archive-relative path holding the txset for seq.
func (a *Archive) TxSetPath(seq uint32) (string, bool) {
	return a.probe(fmt.Sprintf("txsets/%08d.xdr", seq))
}

// CheckpointPath returns the archive-relative path holding the checkpoint
// for seq.
func (a *Archive) CheckpointPath(seq uint32) (string, bool) {
	return a.probe(fmt.Sprintf("checkpoints/%08d.xdr", seq))
}

// BucketPath returns the archive-relative path holding the bucket with the
// given content hash.
func (a *Archive) BucketPath(h stellarcrypto.Hash) (string, bool) {
	return a.probe("buckets/" + h.Hex() + ".bucket")
}

func (a *Archive) probe(rel string) (string, bool) {
	if _, err := os.Stat(filepath.Join(a.dir, rel)); err != nil {
		return "", false
	}
	return rel, true
}

// ReadFileChunk reads up to maxLen bytes of an archive file starting at
// off, returning the chunk, the file's total size, and a checksum of the
// chunk. It is stateless — each call opens, preads, and closes — so a
// server needs no per-peer session and a peer may fetch chunks in any
// order.
func (a *Archive) ReadFileChunk(rel string, off int64, maxLen int) (data []byte, total int64, sum [32]byte, err error) {
	if !ValidRelPath(rel) {
		return nil, 0, sum, fmt.Errorf("history: invalid catchup path %q", rel)
	}
	if maxLen <= 0 || maxLen > MaxChunkLen {
		maxLen = MaxChunkLen
	}
	f, err := os.Open(filepath.Join(a.dir, rel))
	if err != nil {
		return nil, 0, sum, fmt.Errorf("history: catchup read %s: %w", rel, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, sum, fmt.Errorf("history: catchup read %s: %w", rel, err)
	}
	total = st.Size()
	if off < 0 || off > total {
		return nil, 0, sum, fmt.Errorf("history: catchup read %s: offset %d out of range [0,%d]", rel, off, total)
	}
	n := total - off
	if n > int64(maxLen) {
		n = int64(maxLen)
	}
	data = make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil && !(err == io.EOF && off+n == total) {
		return nil, 0, sum, fmt.Errorf("history: catchup read %s@%d: %w", rel, off, err)
	}
	return data, total, sha256.Sum256(data), nil
}

// PartSize returns how many bytes of rel have been fetched so far (the
// size of its .part file), or 0 if no fetch is in progress. This is the
// resume offset after a dropped connection.
func (a *Archive) PartSize(rel string) int64 {
	st, err := os.Stat(filepath.Join(a.dir, rel+partSuffix))
	if err != nil {
		return 0
	}
	return st.Size()
}

// AppendPart appends a fetched chunk to rel's .part file. The chunk must
// land exactly at the current part size — anything else means the fetch
// state machine and the file disagree, and the caller should discard and
// restart the file.
func (a *Archive) AppendPart(rel string, off int64, data []byte) error {
	if !ValidRelPath(rel) {
		return fmt.Errorf("history: invalid catchup path %q", rel)
	}
	if cur := a.PartSize(rel); off != cur {
		return fmt.Errorf("history: catchup append %s: offset %d but part has %d bytes", rel, off, cur)
	}
	path := filepath.Join(a.dir, rel+partSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: catchup append %s: %w", rel, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("history: catchup append %s: %w", rel, err)
	}
	return f.Close()
}

// DiscardPart abandons an in-progress fetch of rel.
func (a *Archive) DiscardPart(rel string) {
	_ = os.Remove(filepath.Join(a.dir, rel+partSuffix))
}

// CommitPart verifies a completely fetched file and promotes it into the
// archive. Buckets are adopted through the store (which verifies the disk
// bucket framing and content hash against the name); everything else must
// carry valid archive framing. A file that fails verification is deleted
// so the fetch can restart from zero.
func (a *Archive) CommitPart(rel string) error {
	if !ValidRelPath(rel) {
		return fmt.Errorf("history: invalid catchup path %q", rel)
	}
	part := filepath.Join(a.dir, rel+partSuffix)
	fail := func(err error) error {
		_ = os.Remove(part)
		return fmt.Errorf("history: catchup commit %s: %w", rel, err)
	}
	if strings.HasPrefix(rel, "buckets/") && strings.HasSuffix(rel, ".bucket") {
		name := strings.TrimSuffix(strings.TrimPrefix(rel, "buckets/"), ".bucket")
		raw, err := hex.DecodeString(name)
		if err != nil || len(raw) != len(stellarcrypto.Hash{}) {
			return fail(fmt.Errorf("bad bucket name %q", name))
		}
		var h stellarcrypto.Hash
		copy(h[:], raw)
		if err := a.store.Adopt(part, h); err != nil {
			return fail(err)
		}
		return nil
	}
	data, err := os.ReadFile(part)
	if err != nil {
		return fail(err)
	}
	hdrLen := len(archiveMagic) + sha256.Size
	if len(data) < hdrLen || string(data[:len(archiveMagic)]) != archiveMagic {
		return fail(fmt.Errorf("bad archive framing"))
	}
	sum := sha256.Sum256(data[hdrLen:])
	if !bytes.Equal(sum[:], data[len(archiveMagic):hdrLen]) {
		return fail(fmt.Errorf("checksum mismatch"))
	}
	dst := filepath.Join(a.dir, rel)
	if err := os.Rename(part, dst); err != nil {
		return fail(err)
	}
	return syncDir(filepath.Dir(dst))
}

// WriteLatestPointer records seq as the newest checkpoint. A catching-up
// node writes it after the checkpoint file itself commits, mirroring the
// order PutCheckpoint uses, so a crash mid-catchup never leaves the
// pointer ahead of the data.
func (a *Archive) WriteLatestPointer(seq uint32) error {
	return a.writeFile("checkpoints/latest", []byte(fmt.Sprintf("%d", seq)))
}
