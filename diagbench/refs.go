package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// reference is an expected answer: the canonical solution list in its
// byte form and whether the enumeration completed.
type reference struct {
	Key      string `json:"key"`
	Complete bool   `json:"complete"`
}

// refCache keeps reference answers across runs of the same source tree:
// a reference depends only on the program's code and on the computation
// its key names (cell or session, engine, k, cap), so a later run of the
// same sources may reuse it. The file lives in the work directory and is
// named by the source digest; an unknown digest disables it.
type refCache struct {
	path    string
	entries map[string]reference
	dirty   bool
}

func loadRefCache(cfg config) *refCache {
	c := &refCache{entries: map[string]reference{}}
	if cfg.digest == "unknown" || len(cfg.digest) < 16 {
		return c
	}
	c.path = filepath.Join(cfg.workdir, "references-"+cfg.digest[:16]+".json")
	data, err := os.ReadFile(c.path)
	if err != nil {
		return c
	}
	if json.Unmarshal(data, &c.entries) != nil {
		c.entries = map[string]reference{}
	}
	return c
}

// get returns the cached reference for key, computing and recording it
// on a miss.
func (c *refCache) get(key string, compute func() (reference, error)) (reference, error) {
	if r, ok := c.entries[key]; ok {
		return r, nil
	}
	r, err := compute()
	if err != nil {
		return r, err
	}
	c.entries[key] = r
	c.dirty = true
	return r, nil
}

// save writes the cache atomically when it gained entries.
func (c *refCache) save() error {
	if c.path == "" || !c.dirty {
		return nil
	}
	data, err := json.Marshal(c.entries)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("write reference cache: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("write reference cache: %w", err)
	}
	return nil
}
