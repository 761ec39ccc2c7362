package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"holmes/internal/config"
)

// Answers from their bytes: the four deterministic POST endpoints read
// their body whole and key it by SHA-256 over the endpoint name and the
// body. A body whose bytes are stored gets them, before any decode. Any
// other body takes the typed path — decode, the canonical (op, config)
// key, coalescing — and its answer is encoded once and written. The
// bytes are stored under the digest on a body's second sighting, when
// every answer in them was asked for before: a body sent once costs its
// canonical answer alone (DESIGN.md decision 8).

// maxPooledBytes bounds the buffers an exchange keeps for reuse: a rare
// large body or answer is left to the collector rather than pinned.
const maxPooledBytes = 64 << 10

// exchange is the reusable state of one request: its body, read into in
// after the endpoint name and a NUL byte so that one SHA-256 over in
// keys (endpoint, body), and the encoder of its answer.
type exchange struct {
	in  []byte
	src bytes.Reader
	out bytes.Buffer
	enc *json.Encoder
}

var exchanges = sync.Pool{New: func() any {
	x := &exchange{in: make([]byte, 0, 512)}
	x.enc = json.NewEncoder(&x.out)
	x.enc.SetIndent("", "  ")
	return x
}}

func getExchange() *exchange { return exchanges.Get().(*exchange) }

// release returns x for reuse unless a large body or answer grew it.
func (x *exchange) release() {
	if cap(x.in) <= maxPooledBytes && x.out.Cap() <= maxPooledBytes {
		exchanges.Put(x)
	}
}

// read reads r's body whole under limit, after ep and a NUL byte. The
// reader it returns yields the body as a decoder streaming it from the
// connection would have read it: after a read error — a body over its
// limit — the bytes read, then the error, so a body over its limit
// answers what the streaming decoder answered (a syntax error or unknown
// field met first, else 413).
func (x *exchange) read(w http.ResponseWriter, r *http.Request, ep string, limit int64) (io.Reader, error) {
	x.in = append(append(x.in[:0], ep...), 0)
	start := len(x.in)
	body := http.MaxBytesReader(w, r.Body, limit)
	defer body.Close()
	// io.ReadAll's loop, into the reused buffer. Reading directly rather
	// than through an io.Reader parameter keeps body off the heap.
	var err error
	for err == nil {
		if len(x.in) == cap(x.in) {
			x.in = append(x.in, 0)[:len(x.in)]
		}
		var n int
		n, err = body.Read(x.in[len(x.in):cap(x.in)])
		x.in = x.in[:len(x.in)+n]
	}
	x.src.Reset(x.in[start:])
	if err != io.EOF {
		return io.MultiReader(&x.src, errReader{err}), err
	}
	return &x.src, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// encode renders v as the API's indented JSON. The bytes are the
// exchange's and valid until its next encode or release.
func (x *exchange) encode(v any) ([]byte, error) {
	x.out.Reset()
	if err := x.enc.Encode(v); err != nil {
		return nil, err
	}
	return x.out.Bytes(), nil
}

// serveBody answers one deterministic POST endpoint from its body. A body
// whose digest the response cache holds is answered those bytes with no
// decode, counted cached once per answer they encode, as the lookups
// they save would have been. Any other body goes to run, which decodes
// and answers it; its errors carry their status (apiError). A successful
// answer is encoded once and written, and stored under the digest when
// run returns keys: the canonical keys of the answers it encodes, each
// asked for before.
func (s *Server) serveBody(w http.ResponseWriter, r *http.Request, ep string, limit int64,
	run func(body io.Reader) (answer any, keys []string, err error)) {
	x := getExchange()
	defer x.release()
	body, readErr := x.read(w, r, ep, limit)
	var sum [sha256.Size]byte
	if readErr == nil {
		sum = sha256.Sum256(x.in)
		if b, n, ok := s.pool.CachedAnswer(sum); ok {
			counters := s.pool.Stats().Endpoint(ep)
			for range n {
				counters.Cached()
			}
			writeBytes(w, http.StatusOK, b)
			return
		}
	}
	answer, keys, err := run(body)
	if err != nil {
		writeError(w, errStatus(err), "%s", err)
		return
	}
	b, err := x.encode(answer)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "api: encode answer: %v", err)
		return
	}
	if keys != nil && readErr == nil {
		b = bytes.Clone(b)
		s.pool.StoreAnswer(sum, b, keys)
	}
	writeBytes(w, http.StatusOK, b)
}

// configRoute is the handler of /v1/plan, /v1/simulate and /v1/search:
// one config.Config body, answered by run.
func configRoute[T any](s *Server, ep string, run func(ep string, c *config.Config, seen *sighting) (*T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveBody(w, r, ep, maxBodyBytes, func(body io.Reader) (any, []string, error) {
			c, err := decode(body)
			if err != nil {
				return nil, nil, err
			}
			var seen sighting
			resp, err := run(ep, c, &seen)
			if err != nil || !seen.again {
				return resp, nil, err
			}
			return resp, []string{seen.key}, nil
		})
	}
}

// writeBytes writes an encoded answer.
func writeBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b) // headers are out; nothing useful to do on failure
}

// writeJSON encodes v and writes it. A value that cannot be encoded (a
// non-finite number) answers 500 rather than an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	x := getExchange()
	defer x.release()
	b, err := x.encode(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "api: encode answer: %v", err)
		return
	}
	writeBytes(w, status, b)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}
