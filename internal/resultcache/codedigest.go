package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

var codeOnce struct {
	sync.Once
	digest string
	err    error
}

// CodeDigest hashes every non-test Go source file under the
// repository's internal/ tree — the protocol, engine, and harness
// packages whose behaviour determines a simulation's output — into a
// short hex digest. The digest is a key field, so any code change
// naturally invalidates all cached results; there is no manual flush.
//
// The source tree is located relative to this file via runtime.Caller,
// which works for the in-repo binaries and tests this cache serves. If
// the sources are unavailable (e.g. a stripped deployment), CodeDigest
// returns an error and the harness refuses to serve a cached point:
// entries outlive the process, so their keys must pin the code.
func CodeDigest() (string, error) {
	codeOnce.Do(func() {
		codeOnce.digest, codeOnce.err = computeCodeDigest()
	})
	return codeOnce.digest, codeOnce.err
}

func computeCodeDigest() (string, error) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("resultcache: cannot locate own source file")
	}
	// thisFile = <repo>/internal/resultcache/codedigest.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	internal := filepath.Join(root, "internal")
	var files []string
	err := filepath.WalkDir(internal, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("resultcache: walking %s: %w", internal, err)
	}
	if len(files) == 0 {
		return "", fmt.Errorf("resultcache: no Go sources under %s", internal)
	}
	sort.Strings(files)
	h := sha256.New()
	h.Write([]byte("tempest-resultcache-code v1\n"))
	var lenBuf [8]byte
	writeBytes := func(b []byte) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	for _, path := range files {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return "", fmt.Errorf("resultcache: %w", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("resultcache: %w", err)
		}
		writeBytes([]byte(filepath.ToSlash(rel)))
		writeBytes(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
