package serve

// FuzzCheckRequest hardens the serving subsystem's input path the way
// FuzzImageValidate hardens the library's: for arbitrary request
// bodies the JSON decoders must either reject cleanly or produce an
// image that passes Validate — and must never panic. It is also
// differential: whenever the canonical-form scanner accepts a body, the
// encoding/json reference must accept it too and decode equal
// dimensions and flags and bit-equal pixels. The same holds for the
// recycling path: decoding into NaN-filled slices from a free list,
// releasing them and decoding another body into them (diffRecycled).
// Wired into the CI fuzz step next to FuzzImageValidate.

import (
	"testing"
)

func FuzzCheckRequest(f *testing.F) {
	f.Add([]byte(`{"channels":1,"height":2,"width":2,"pixels":[0,0.5,1,0.25]}`))
	f.Add([]byte(`{"channels":1,"height":2,"width":2,"pixels":[0,0.5,1]}`))                              // count mismatch
	f.Add([]byte(`{"channels":-1,"height":8,"width":8,"pixels":[]}`))                                    // negative dimension
	f.Add([]byte(`{"channels":4611686018427387904,"height":4611686018427387904,"width":4,"pixels":[]}`)) // overflow bait
	f.Add([]byte(`{"channels":1,`))                                                                      // truncated
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"images":[]}`))
	for _, body := range acceptedBodies {
		f.Add([]byte(body))
	}
	for _, body := range declinedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffScanned(t, data)
		diffRecycled(t, data)
		img, _, err := decodeCheckRequest(data, nil)
		if err == nil {
			if verr := img.Validate(); verr != nil {
				t.Fatalf("decodeCheckRequest accepted an image Validate rejects: %v", verr)
			}
		}
		imgs, explains, err := decodeBatchRequest(data, nil)
		if err == nil {
			if len(imgs) == 0 {
				t.Fatal("decodeBatchRequest accepted an empty batch")
			}
			if len(explains) != len(imgs) {
				t.Fatalf("decodeBatchRequest returned %d explain flags for %d images", len(explains), len(imgs))
			}
			for i, im := range imgs {
				if verr := im.Validate(); verr != nil {
					t.Fatalf("decodeBatchRequest accepted image %d that Validate rejects: %v", i, verr)
				}
			}
		}
	})
}

// FuzzBatchStream is the streamed batch decoder's differential test:
// for any body, decodeBatchStream must return exactly what
// decodeBatchRequest returns for the whole body — bit-equal pixels,
// equal dimensions and explain flags, identical error text — whether
// the body arrives in one read, one byte per read or in chunks drawn
// from seed (diffStream). Wired into the CI fuzz step next to
// FuzzCheckRequest.
func FuzzBatchStream(f *testing.F) {
	for i, body := range acceptedBodies {
		f.Add([]byte(body), int64(i))
	}
	for i, body := range declinedBodies {
		f.Add([]byte(body), int64(i))
	}
	for i, body := range streamDeclinedBodies {
		f.Add([]byte(body), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		diffStream(t, data, seed)
	})
}
