package tablescan

// DecodeRecords unpacks a record page.
func DecodeRecords(page []byte) ([]Record, error) {
	n, err := recordCount(page)
	if err != nil {
		return nil, err
	}
	out := make([]Record, n)
	for i := range out {
		out[i] = decodeRecord(page[4+i*RecordSize:])
	}
	return out, nil
}
