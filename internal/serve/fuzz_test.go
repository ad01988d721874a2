package serve

import (
	"testing"
)

// FuzzCheckRequest is the streamed check decoder's differential test,
// and hardens the serving subsystem's input path the way
// FuzzImageValidate hardens the library's: for any body,
// decodeCheckStream must return exactly what decodeStrict and Validate
// return for the whole body — bit-equal pixels, equal dimensions and
// explain flag, identical error text — whether the body arrives in one
// read, one byte per read or in chunks drawn from seed
// (diffCheckStream), and must never panic. The same holds for the
// recycling path: decoding into NaN-filled slices from a free list,
// releasing them and decoding another body into them (diffRecycled).
// Wired into the CI fuzz step next to FuzzImageValidate.
func FuzzCheckRequest(f *testing.F) {
	seeds := []string{
		`{"channels":1,"height":2,"width":2,"pixels":[0,0.5,1,0.25]}`,
		`{"channels":1,"height":2,"width":2,"pixels":[0,0.5,1]}`,                              // count mismatch
		`{"channels":-1,"height":8,"width":8,"pixels":[]}`,                                    // negative dimension
		`{"channels":4611686018427387904,"height":4611686018427387904,"width":4,"pixels":[]}`, // overflow bait
		`{"channels":1,`, // truncated
		`[]`,
		``,
		`{"images":[]}`,
	}
	seeds = append(append(seeds, acceptedBodies...), declinedBodies...)
	for i, body := range seeds {
		f.Add([]byte(body), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		diffCheckStream(t, data, seed)
		diffRecycled(t, data)
	})
}

// FuzzBatchStream is the streamed batch decoder's differential test:
// for any body, decodeBatchStream must return exactly what decodeStrict
// and batchImages return for the whole body — bit-equal pixels, equal
// dimensions and explain flags, identical error text — whether the body
// arrives in one read, one byte per read or in chunks drawn from seed
// (diffStream). Wired into the CI fuzz step next to FuzzCheckRequest.
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
