package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"deepvalidation"
)

// declinedBodies are well-formed-looking bodies outside the scanner's
// canonical form, one per decline trigger. Each must reach the
// reference decoder; FuzzCheckRequest seeds its corpus with them.
var declinedBodies = []string{
	`{"Channels":1,"height":1,"width":1,"pixels":[0.5]}`,                // case-variant key
	`{"ch\u0061nnels":1,"height":1,"width":1,"pixels":[0.5]}`,           // escaped key
	`{"channels":1,"channels":1,"height":1,"width":1,"pixels":[0.5]}`,   // duplicate key
	`{"channels":1,"height":1,"width":1,"pixels":null}`,                 // null array
	`{"channels":1,"height":1,"width":1,"pixels":[null]}`,               // null element
	`{"channels":null,"height":1,"width":1,"pixels":[0.5]}`,             // null dimension
	`{"channels":1,"height":1,"width":1,"pixels":[0.5],"explain":null}`, // null flag
	`null`, // null body
	`{"channels":1,"height":1,"width":1,"pixels":[1e309]}`,                        // float out of range
	`{"channels":9223372036854775808,"height":1,"width":1,"pixels":[0.5]}`,        // int out of range
	`{"channels":1.0,"height":1,"width":1,"pixels":[0.5]}`,                        // fractional dimension
	`{"channels":1e0,"height":1,"width":1,"pixels":[0.5]}`,                        // exponent dimension
	`{"channels":1,"height":1,"width":1,"pixels":[0.5]}]`,                         // trailing ]
	`{"channels":1,"height":1,"width":1,"pixels":[0.5]}}`,                         // trailing }
	`{"channels":1,"height":1,"width":1,"pixels":[0.5]} x`,                        // trailing bytes
	`{"channels":1,"height":1,"width":1,"pixels":[0.5],"x":1}`,                    // unknown key
	`{"channels":1,"height":1,"width":1,"pixels":[01]}`,                           // leading zero
	`{"channels":1,"height":1,"width":1,"pixels":[.5]}`,                           // bare fraction
	`{"channels":1,"height":1,"width":1,"pixels":[1.]}`,                           // empty fraction
	`{"channels":1,"height":1,"width":1,"pixels":[+1]}`,                           // plus sign
	`{"channels":1,"height":1,"width":1,"pixels":[0x1]}`,                          // hex
	`{"channels":1,"height":1,"width":1,"pixels":[Infinity]}`,                     // non-JSON literal
	`{"channels":1,"height":1,"width":1,"pixels":[0.5,]}`,                         // trailing comma
	`{"channels":1,"height":1,"width":1,"pixels":["0.5"]}`,                        // string element
	`{"channels":1,"height":1,"width":1,"pixels":[0.5],"explain":1}`,              // non-boolean flag
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]}]}]`,            // batch, trailing ]
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]}]}}`,            // batch, trailing }
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5]}],"images":[]}`, // batch, duplicate key
	`{"images":[null]}`,              // batch, null image
	`{"images":null}`,                // batch, null array
	`{"Images":[]}`,                  // batch, case-variant key
	`{"images":[],"explain":"true"}`, // batch, string flag
	`{"images":[]}`,                  // batch, no images: the reference refuses it
}

// acceptedBodies are canonical: the scanner must take them itself.
var acceptedBodies = []string{
	`{"channels":1,"height":2,"width":2,"pixels":[0,0.5,1,0.25]}`,
	" \n{ \"channels\" : 1 ,\t\"height\":1,\r\"width\":1, \"pixels\" : [ -0 ] , \"explain\" : true } \n",
	`{"pixels":[1E+2,-1.5e-3,1e-400,123456789012345678901234567890],"width":4,"height":1,"channels":1}`,
	`{"channels":-1,"height":0,"width":2,"pixels":[]}`,
	`{}`,
	`{"images":[{"channels":1,"height":1,"width":1,"pixels":[0.5],"explain":false},{"channels":1,"height":1,"width":1,"pixels":[1]}],"explain":true}`,
}

// diffRequest describes the first difference between two decoded check
// requests, comparing pixels bit for bit; "" means equal.
func diffRequest(got, want CheckRequest) string {
	if got.Channels != want.Channels || got.Height != want.Height || got.Width != want.Width || got.Explain != want.Explain {
		return fmt.Sprintf("header %d×%d×%d explain=%v, reference %d×%d×%d explain=%v",
			got.Channels, got.Height, got.Width, got.Explain, want.Channels, want.Height, want.Width, want.Explain)
	}
	if len(got.Pixels) != len(want.Pixels) {
		return fmt.Sprintf("%d pixels, reference %d", len(got.Pixels), len(want.Pixels))
	}
	for i := range got.Pixels {
		if math.Float64bits(got.Pixels[i]) != math.Float64bits(want.Pixels[i]) {
			return fmt.Sprintf("pixel %d is %v, reference %v", i, got.Pixels[i], want.Pixels[i])
		}
	}
	return ""
}

// referenceCheck decodes a whole check body as the streamed decoder's
// fallback does: decodeStrict, then Validate.
func referenceCheck(data []byte) (deepvalidation.Image, bool, error) {
	var req CheckRequest
	if err := decodeStrict(data, "check", &req); err != nil {
		return deepvalidation.Image{}, false, err
	}
	img := req.image()
	if err := img.Validate(); err != nil {
		return deepvalidation.Image{}, false, err
	}
	return img, req.Explain, nil
}

// referenceBatch decodes a whole batch body as the streamed decoder's
// fallback does: decodeStrict, then batchImages.
func referenceBatch(data []byte) ([]deepvalidation.Image, []bool, error) {
	var req BatchRequest
	if err := decodeStrict(data, "batch", &req); err != nil {
		return nil, nil, err
	}
	return batchImages(req, nil, nil)
}

// diffScanned runs the stream's check and batch scans over data, read
// whole through the production window, and, for each that accepts
// (takes no fallback), checks that the reference decoder accepts the
// body too and decodes an equal request. It returns how many of the two
// scans accepted.
func diffScanned(t *testing.T, data []byte) int {
	t.Helper()
	accepted := 0
	st := newStream(windowSize)
	st.start(bytes.NewReader(data), int64(len(data)), nil)
	var got CheckRequest
	if st.scanCheck(&got) {
		accepted++
		var want CheckRequest
		if err := decodeStrict(data, "check", &want); err != nil {
			t.Fatalf("scanner accepted a check body the reference rejects (%v): %q", err, data)
		}
		if d := diffRequest(got, want); d != "" {
			t.Fatalf("scanned check body differs from the reference: %s: %q", d, data)
		}
	}
	st.start(bytes.NewReader(data), int64(len(data)), nil)
	if st.scan() {
		accepted++
		got := st.req
		var want BatchRequest
		if err := decodeStrict(data, "batch", &want); err != nil {
			t.Fatalf("scanner accepted a batch body the reference rejects (%v): %q", err, data)
		}
		if got.Explain != want.Explain || len(got.Images) != len(want.Images) {
			t.Fatalf("scanned batch has %d images explain=%v, reference %d explain=%v: %q",
				len(got.Images), got.Explain, len(want.Images), want.Explain, data)
		}
		for i := range got.Images {
			if d := diffRequest(got.Images[i], want.Images[i]); d != "" {
				t.Fatalf("scanned batch image %d differs from the reference: %s: %q", i, d, data)
			}
		}
	}
	return accepted
}

// diffRecycled decodes data through the streamed decoders' entry points
// and a free list primed with NaN-filled slices of the reference's
// first pixel count, so a reused slice that kept an old element shows
// up. Every image it accepts must be bit-equal to decodeStrict's. It
// then releases those pixels to an empty list and decodes a second
// check body, with the same geometry and other pixels, which must be
// bit-equal to the reference too and, when the list kept the released
// slice, land in it.
func diffRecycled(t *testing.T, data []byte) {
	t.Helper()
	limit := int64(len(data))
	var refCheck CheckRequest
	if decodeStrict(data, "check", &refCheck) == nil {
		n := len(refCheck.Pixels)
		free := primedFree(n, 1)
		img, explain, err := decodeCheckStream(testStreams, bytes.NewReader(data), limit, free)
		if err != nil {
			return
		}
		got := CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels, Explain: explain}
		if d := diffRequest(got, refCheck); d != "" {
			t.Fatalf("recycled check decode differs from the reference: %s: %q", d, data)
		}
		free = newPixelFree(1)
		free.put(img.Pixels, n)
		other := refCheck
		other.Pixels = make([]float64, n)
		for i, v := range refCheck.Pixels {
			other.Pixels[i] = v*0.5 + 0.25
		}
		body, err := json.Marshal(other)
		if err != nil {
			t.Fatal(err)
		}
		img2, explain2, err := decodeCheckStream(testStreams, bytes.NewReader(body), int64(len(body)), free)
		if err != nil {
			t.Fatalf("decoding a re-marshaled accepted body: %v: %q", err, body)
		}
		got = CheckRequest{Channels: img2.Channels, Height: img2.Height, Width: img2.Width, Pixels: img2.Pixels, Explain: explain2}
		if d := diffRequest(got, other); d != "" {
			t.Fatalf("second decode into a recycled slice differs from the reference: %s: %q", d, body)
		}
		if n > 0 && cap(img.Pixels) == n && &img2.Pixels[0] != &img.Pixels[0] {
			t.Fatalf("second decode of %q did not reuse the released pixel slice", body)
		}
	}
	var refBatch BatchRequest
	if decodeStrict(data, "batch", &refBatch) == nil && len(refBatch.Images) > 0 {
		imgs, explains, err := decodeBatchStream(testStreams, bytes.NewReader(data), limit, primedFree(len(refBatch.Images[0].Pixels), len(refBatch.Images)), nil, nil)
		if err != nil {
			return
		}
		for i, img := range imgs {
			got := CheckRequest{Channels: img.Channels, Height: img.Height, Width: img.Width, Pixels: img.Pixels, Explain: explains[i]}
			want := refBatch.Images[i]
			want.Explain = want.Explain || refBatch.Explain
			if d := diffRequest(got, want); d != "" {
				t.Fatalf("recycled batch decode of image %d differs from the reference: %s: %q", i, d, data)
			}
		}
	}
}

// primedFree returns a free list holding k NaN-filled slices of length n.
func primedFree(n, k int) *pixelFree {
	free := newPixelFree(k)
	for range k {
		stale := make([]float64, n)
		for i := range stale {
			stale[i] = math.NaN()
		}
		free.put(stale, n)
	}
	return free
}

// TestScannerCanonicalForm pins which bodies the streamed decoder's
// scanner takes itself and which it leaves to the fallback, and that it
// agrees with the reference on every one it takes.
func TestScannerCanonicalForm(t *testing.T) {
	for _, body := range acceptedBodies {
		if diffScanned(t, []byte(body)) == 0 {
			t.Errorf("scanner declined canonical body %q", body)
		}
	}
	for _, body := range declinedBodies {
		if diffScanned(t, []byte(body)) != 0 {
			t.Errorf("scanner accepted non-canonical body %q", body)
		}
	}
}

// digitImages returns n 28×28 greyscale images with random pixels —
// the shape and number format of real camera-frame check bodies.
func digitImages(n int) []deepvalidation.Image {
	rng := rand.New(rand.NewSource(3))
	imgs := make([]deepvalidation.Image, n)
	for i := range imgs {
		px := make([]float64, 28*28)
		for j := range px {
			px[j] = rng.Float64()
		}
		imgs[i] = deepvalidation.Image{Channels: 1, Height: 28, Width: 28, Pixels: px}
	}
	return imgs
}

// TestDecodeAllocBudget pins the canonical decode at one allocation per
// pixel slice plus the request's own slices, and at none per pixel
// slice once the free list is warm: each recycled case hands its pixels
// back after every decode, as the handler does after the verdict. The
// decoders read through one bytes.Reader, reset before each decode, and
// take their streams from one list, so neither is counted. A canonical body silently falling back to
// encoding/json costs ~25 allocations per image and trips it.
func TestDecodeAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; budgets apply to normal builds")
	}
	imgs := digitImages(32)
	check, batch := checkBody(t, imgs[0]), batchBody(t, imgs)
	free, streams := newPixelFree(len(imgs)), newStreamFree(1)
	rd := bytes.NewReader(nil)
	read := func(body []byte) (io.Reader, int64) {
		rd.Reset(body)
		return rd, int64(len(body))
	}
	cases := []struct {
		name   string
		budget float64
		decode func() error
	}{
		{"check 28x28", 2, func() error {
			r, n := read(check)
			_, _, err := decodeCheckStream(streams, r, n, nil)
			return err
		}},
		{"batch 32x28x28", 48, func() error {
			r, n := read(batch)
			_, _, err := decodeBatchStream(streams, r, n, nil, nil, nil)
			return err
		}},
		{"check 28x28, recycled pixels", 0, func() error {
			r, n := read(check)
			img, _, err := decodeCheckStream(streams, r, n, free)
			free.put(img.Pixels, 28*28)
			return err
		}},
		{"batch 32x28x28, recycled pixels", 16, func() error {
			r, n := read(batch)
			got, _, err := decodeBatchStream(streams, r, n, free, nil, nil)
			for _, img := range got {
				free.put(img.Pixels, 28*28)
			}
			return err
		}},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = tc.decode() })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations per decode", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per decode, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// failReader fails the test that reads it.
type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Fatal("a body declared over the cap was read")
	return 0, io.EOF
}

// TestReadLimitedSizing pins ReadLimited's buffers: a declared length
// gets a new buffer of its sizeClass, which a somewhat longer body then
// reuses; an undeclared length starts at 513 bytes; nothing exceeds
// limit+1; and a length declared over the cap fails without a read.
func TestReadLimitedSizing(t *testing.T) {
	const limit = 1 << 20
	first, err := ReadLimited(strings.NewReader(strings.Repeat("a", 400_000)), 400_000, limit, nil)
	if err != nil || len(first) != 400_000 || cap(first) != 448<<10 {
		t.Fatalf("declared 400,000: len %d cap %d (%v), want cap %d", len(first), cap(first), err, 448<<10)
	}
	second, err := ReadLimited(strings.NewReader(strings.Repeat("b", 430_000)), 430_000, limit, first)
	if err != nil || len(second) != 430_000 || &second[0] != &first[0] {
		t.Fatalf("declared 430,000 into a 448 KiB buffer: len %d cap %d (%v), want the same array", len(second), cap(second), err)
	}
	if got, err := ReadLimited(strings.NewReader("x"), -1, limit, nil); err != nil || cap(got) != 513 {
		t.Fatalf("undeclared: cap %d (%v), want 513", cap(got), err)
	}
	if got, err := ReadLimited(strings.NewReader(strings.Repeat("c", 1000)), 1000, 1000, nil); err != nil || cap(got) != 1001 {
		t.Fatalf("declared at a 1,000-byte cap: cap %d (%v), want 1001", cap(got), err)
	}
	_, err = ReadLimited(failReader{t}, limit+1, limit, nil)
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		t.Fatalf("declared over the cap: %v, want an *http.MaxBytesError", err)
	}
	for _, c := range []struct{ n, want int64 }{{1, 512}, {512, 512}, {513, 640}, {640, 640}, {641, 768}, {1 << 20, 1 << 20}, {1<<20 + 1, 1<<20 + 1<<18}} {
		if got := sizeClass(c.n); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
