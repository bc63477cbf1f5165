package dhlproto

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Count reports the number of records in a batch, validating framing.
func Count(batch []byte) (int, error) {
	n := 0
	err := Walk(batch, func(Record) error { n++; return nil })
	return n, err
}

// EncodedLen reports the batch bytes record payloads of the given sizes
// will occupy.
func EncodedLen(payloadLens ...int) int {
	total := 0
	for _, n := range payloadLens {
		total += RecordOverhead + n
	}
	return total
}
