package server

// gzipRan reports whether cb's compression has run, and keeps it from
// ever running afterwards: a probe for the end of a test.
func (cb *CachedBody) gzipRan() bool {
	ran := true
	cb.once.Do(func() { ran = false })
	return ran
}
