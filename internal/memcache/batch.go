package memcache

// KV is one key/value pair of a bulk write.
type KV struct {
	// Key is the item's unique identifier.
	Key string
	// Value is the opaque payload.
	Value []byte
}

// GetBatch retrieves many keys in one server-side operation. It returns the
// found items and the keys that were absent.
func (c *Cache) GetBatch(keys []string) (found []Item, missing []string, err error) {
	if err := c.enter(); err != nil {
		return nil, nil, err
	}
	for _, key := range keys {
		c.countGet()
		rec, ok := c.lookup(key)
		if !ok {
			c.countMiss()
			missing = append(missing, key)
			continue
		}
		c.countHit()
		found = append(found, rec.item(key))
	}
	return found, missing, nil
}

// PutBatch stores many key/value pairs in one server-side operation,
// returning the stored items in input order.
func (c *Cache) PutBatch(kvs []KV) ([]Item, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	out := make([]Item, 0, len(kvs))
	for _, kv := range kvs {
		c.puts.Add(1)
		it, _ := c.store(kv.Key, kv.Value, nil, true) // only a CAS can fail
		out = append(out, it)
	}
	return out, nil
}

// DeleteBatch removes many keys in one server-side operation, returning how
// many of them were present. Absent keys are skipped rather than reported as errors: a bulk delete is the
// propagation of deletions that already succeeded somewhere else, so "already
// gone" is success.
func (c *Cache) DeleteBatch(keys []string) (int, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	deleted := 0
	for _, key := range keys {
		c.deletes.Add(1)
		if c.take(key, true) {
			deleted++
		}
	}
	return deleted, nil
}
