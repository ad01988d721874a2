// Package artifact is the fault-tolerant persistence layer for the
// repository's on-disk artifacts (trained networks, fitted
// validators). It applies the paper's validate-before-trust discipline
// to our own files: an artifact is only accepted if its container
// header parses, its declared payload length matches what is on disk,
// and the SHA-256 of the payload matches the checksum recorded at
// write time — so a torn write, a flipped bit, or a half-copied file
// yields a clean, typed error instead of a silently corrupted detector.
//
// # Container format (version 1)
//
//	offset  size  field
//	0       8     magic "DVARTFC1" (format version folded into byte 7)
//	8       4     big-endian header length N
//	12      N     JSON header (Header struct: kind, model name, shape,
//	              payload size, payload SHA-256)
//	12+N    ...   payload (gob), exactly Header.PayloadSize bytes
//
// The header is JSON so an operator can inspect an artifact with dd
// and jq without loading it; the payload stays gob for compatibility
// with every fitted model already in the field.
//
// # Atomic writes
//
// WriteFile never truncates the destination in place. It writes a temp
// file in the destination directory, fsyncs it, renames it over the
// destination, and fsyncs the directory — a crash at any point leaves
// either the old artifact or the new one, never a hybrid. The
// faultinject points artifact.write and artifact.rename sit on either
// side of the durability edge so chaos tests can prove it.
//
// # Legacy fallback
//
// Files that do not start with the magic are read as legacy bare-gob
// artifacts (everything written before the container existed,
// including the committed goldens). ReadFile reports this via
// Info.Legacy; legacy files get no integrity check beyond what gob
// decoding itself enforces.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deepvalidation/internal/faultinject"
)

// magic identifies a version-1 container. The trailing byte is the
// format version; bumping the format means a new magic, and readers
// reject magics whose prefix matches but whose version they do not
// know.
var magic = [8]byte{'D', 'V', 'A', 'R', 'T', 'F', 'C', '1'}

// maxHeaderLen bounds the declared header length so a corrupt length
// field cannot demand a giant allocation.
const maxHeaderLen = 1 << 20

// Kinds of artifact this repository persists.
const (
	KindModel     = "model"
	KindValidator = "validator"
	// KindEscape is one detector-escape regression case mined by dvhunt
	// (internal/hunt): a seed image, the transformation chain that broke
	// the model, and the verdict recorded at mining time.
	KindEscape = "escape"
)

// Header is the integrity and identity metadata of one artifact. It is
// stored as JSON inside the container and cross-checked against the
// payload on every read.
type Header struct {
	// Kind is KindModel or KindValidator.
	Kind string `json:"kind"`
	// ModelName names the network this artifact belongs to; load-time
	// compatibility checks reject model/validator pairs whose names
	// disagree.
	ModelName string `json:"model_name"`
	// Classes is the label count of the model or validator.
	Classes int `json:"classes,omitempty"`
	// InputShape is the (C,H,W) geometry a model consumes (models only).
	InputShape []int `json:"input_shape,omitempty"`
	// Layers lists the validated tap indices (validators only).
	Layers []int `json:"layers,omitempty"`
	// PayloadSize and PayloadSHA256 (hex) pin the gob payload exactly.
	PayloadSize   int64  `json:"payload_size"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// Info describes how an artifact was read.
type Info struct {
	// Header is the container header; the zero Header for legacy files.
	Header Header
	// Legacy is true when the file was a bare gob with no container.
	Legacy bool
}

// CorruptError reports an artifact that failed an integrity check. It
// wraps no I/O error: the file was readable but its content is not
// trustworthy.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: %s is corrupt: %s", e.Path, e.Reason)
}

// corrupt builds a CorruptError for path.
func corrupt(path, format string, args ...any) error {
	return &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// Encode serializes the container to w: magic, header length, JSON
// header (with the payload size and checksum filled in from payload),
// then the payload itself.
func Encode(w io.Writer, h Header, payload []byte) error {
	sum := sha256.Sum256(payload)
	h.PayloadSize = int64(len(payload))
	h.PayloadSHA256 = hex.EncodeToString(sum[:])
	hdr, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("artifact: encoding header: %w", err)
	}
	if len(hdr) > maxHeaderLen {
		return fmt.Errorf("artifact: header of %d bytes exceeds the %d-byte cap", len(hdr), maxHeaderLen)
	}
	if _, err := w.Write(magic[:]); err != nil {
		return fmt.Errorf("artifact: writing magic: %w", err)
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(len(hdr)))
	if _, err := w.Write(hlen[:]); err != nil {
		return fmt.Errorf("artifact: writing header length: %w", err)
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("artifact: writing header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("artifact: writing payload: %w", err)
	}
	return nil
}

// Decode parses a container from data (the full file content),
// verifying the checksum, and returns the header and payload. path is
// used only for error messages. Data that does not start with the
// magic is returned as a legacy payload.
func Decode(path string, data []byte) (Info, []byte, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		// No container: legacy bare gob. Integrity rests on the gob
		// decoder alone, exactly as it did before the container existed.
		return Info{Legacy: true}, data, nil
	}
	rest := data[len(magic):]
	if len(rest) < 4 {
		return Info{}, nil, corrupt(path, "truncated before the header length")
	}
	hlen := binary.BigEndian.Uint32(rest[:4])
	if hlen > maxHeaderLen {
		return Info{}, nil, corrupt(path, "header length %d exceeds the %d-byte cap", hlen, maxHeaderLen)
	}
	rest = rest[4:]
	if uint32(len(rest)) < hlen {
		return Info{}, nil, corrupt(path, "truncated inside the header (%d of %d bytes)", len(rest), hlen)
	}
	var h Header
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return Info{}, nil, corrupt(path, "header does not parse: %v", err)
	}
	payload := rest[hlen:]
	if int64(len(payload)) != h.PayloadSize {
		return Info{}, nil, corrupt(path, "payload is %d bytes but the header declares %d", len(payload), h.PayloadSize)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.PayloadSHA256 {
		return Info{}, nil, corrupt(path, "payload SHA-256 mismatch (bit rot or a torn write)")
	}
	return Info{Header: h}, payload, nil
}

// ReadFile reads and verifies an artifact, returning its payload and
// how it was read (container or legacy fallback).
func ReadFile(path string) (Info, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, nil, fmt.Errorf("artifact: reading %s: %w", path, err)
	}
	return Decode(path, data)
}

// WriteFile atomically persists a version-1 container: temp file in
// the destination directory, write, fsync, rename over path, fsync the
// directory. On any error the destination is untouched and the temp
// file is removed.
func WriteFile(path string, h Header, payload []byte) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: creating temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = faultinject.Check(faultinject.PointArtifactWrite); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	if err = Encode(f, h, payload); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("artifact: syncing %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("artifact: closing %s: %w", tmp, err)
	}
	// The crash window atomicity protects against: the new artifact is
	// durable under its temp name, the old one still lives at path.
	if err = faultinject.Check(faultinject.PointArtifactRename); err != nil {
		return fmt.Errorf("artifact: publishing %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("artifact: publishing %s: %w", path, err)
	}
	SyncDir(dir)
	return nil
}

// ReadHeader reads and verifies an artifact and returns only its
// container header (model name, payload checksum) without decoding the
// gob payload. It is not cheap: like ReadFile it reads the whole file
// and hashes the payload. A detector already loaded from the file
// knows its checksum (deepvalidation.Detector.ArtifactSHAs). Legacy
// bare-gob files return Info{Legacy: true} with a zero header.
func ReadHeader(path string) (Info, error) {
	info, _, err := ReadFile(path)
	return info, err
}

// SyncDir fsyncs a directory so a just-published rename survives power
// loss. Errors are ignored: some filesystems (and all of Windows)
// reject directory fsync, and the rename itself has already succeeded.
// Exported for other subsystems (the obs log rotation) that follow the
// same rename-then-sync discipline.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
