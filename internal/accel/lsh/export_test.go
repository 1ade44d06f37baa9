package lsh

// MkItems is mkItems for the external tests (isp_test.go).
var MkItems = mkItems
