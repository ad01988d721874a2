package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"deepvalidation/internal/artifact"
)

// gobOnce registers the concrete layer types with encoding/gob exactly
// once. Registration is lazy (rather than in an init function) so
// importing nn stays side-effect free.
var gobOnce sync.Once

func registerGob() {
	gobOnce.Do(func() {
		gob.Register(&Conv2D{})
		gob.Register(&Dense{})
		gob.Register(&ReLU{})
		gob.Register(&Softmax{})
		gob.Register(&MaxPool2D{})
		gob.Register(&AvgPool2D{})
		gob.Register(&GlobalAvgPool{})
		gob.Register(&Flatten{})
		gob.Register(&Dropout{})
		gob.Register(&BatchNorm{})
		gob.Register(&Seq{})
		gob.Register(&DenseBlock{})
	})
}

// Encode writes the network to w in gob format (the artifact payload
// format; Save wraps it in the checksummed container).
func (n *Network) Encode(w io.Writer) error {
	registerGob()
	if err := gob.NewEncoder(w).Encode(n); err != nil {
		return fmt.Errorf("nn: encoding network %q: %w", n.ModelName, err)
	}
	return nil
}

// Decode reads a network from r and validates its structural
// invariants, so a corrupt-but-decodable stream cannot produce a
// network that panics at first Forward.
func Decode(r io.Reader) (*Network, error) {
	registerGob()
	var n Network
	if err := gob.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// Validate checks the invariants a freshly decoded network must hold
// before it can be trusted to serve: a positive (C,H,W) input shape, a
// non-empty layer stack whose shapes chain to a Classes-long output,
// and finite parameters (a NaN or Inf weight would poison every
// activation downstream — the corruption mode checksums cannot catch
// on legacy bare-gob artifacts).
func (n *Network) Validate() (err error) {
	if len(n.Layers) == 0 {
		return fmt.Errorf("nn: network %q has no layers", n.ModelName)
	}
	if len(n.InShape) != 3 {
		return fmt.Errorf("nn: network %q input shape %v is not (C,H,W)", n.ModelName, n.InShape)
	}
	for _, d := range n.InShape {
		if d <= 0 {
			return fmt.Errorf("nn: network %q has non-positive input shape %v", n.ModelName, n.InShape)
		}
	}
	if n.Classes <= 0 {
		return fmt.Errorf("nn: network %q declares %d classes", n.ModelName, n.Classes)
	}
	// Layer shape inference panics on inconsistent geometry; convert
	// that to an error so load stays panic-free on corrupt artifacts.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nn: network %q has inconsistent layer shapes: %v", n.ModelName, r)
		}
	}()
	shape := n.InShape
	for _, l := range n.Layers {
		if l == nil {
			return fmt.Errorf("nn: network %q contains a nil layer", n.ModelName)
		}
		shape = l.OutShape(shape)
	}
	if len(shape) != 1 || shape[0] != n.Classes {
		return fmt.Errorf("nn: network %q produces shape %v, want [%d]", n.ModelName, shape, n.Classes)
	}
	for _, p := range n.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: network %q carries a non-finite parameter (%v)", n.ModelName, v)
			}
		}
	}
	return nil
}

// Save atomically persists the network as a checksummed artifact
// container (see internal/artifact): the gob payload is wrapped in a
// header carrying the model's identity and a SHA-256, written to a
// temp file, fsynced, and renamed over path — a crash mid-save leaves
// any previous artifact intact.
func (n *Network) Save(path string) error {
	var buf bytes.Buffer
	if err := n.Encode(&buf); err != nil {
		return err
	}
	h := artifact.Header{
		Kind:       artifact.KindModel,
		ModelName:  n.ModelName,
		Classes:    n.Classes,
		InputShape: append([]int(nil), n.InShape...),
	}
	if err := artifact.WriteFile(path, h, buf.Bytes()); err != nil {
		return fmt.Errorf("nn: saving network: %w", err)
	}
	return nil
}

// Load reads a network saved by Save. Checksummed containers are
// verified (payload SHA-256, header↔payload identity cross-checks);
// legacy bare-gob files written before the container format load
// through a transparent fallback. Either way the decoded network is
// structurally validated before it is returned.
func Load(path string) (*Network, error) {
	n, _, err := LoadInfo(path)
	return n, err
}

// LoadInfo is Load that also returns how the file was read: the
// container header whose payload checksum it verified, or Legacy set
// for a bare gob.
func LoadInfo(path string) (*Network, artifact.Info, error) {
	info, payload, err := artifact.ReadFile(path)
	if err != nil {
		return nil, info, fmt.Errorf("nn: loading network: %w", err)
	}
	n, err := Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, info, fmt.Errorf("nn: loading network from %s: %w", path, err)
	}
	if !info.Legacy {
		h := info.Header
		if h.Kind != artifact.KindModel {
			return nil, info, fmt.Errorf("nn: %s is a %q artifact, want %q", path, h.Kind, artifact.KindModel)
		}
		if h.ModelName != n.ModelName || h.Classes != n.Classes || !shapeEqual(h.InputShape, n.InShape) {
			return nil, info, fmt.Errorf("nn: %s header (%s, %d classes, shape %v) disagrees with its payload (%s, %d classes, shape %v)",
				path, h.ModelName, h.Classes, h.InputShape, n.ModelName, n.Classes, n.InShape)
		}
	}
	return n, info, nil
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
