package search

// HaystackGen is haystackGen for the external tests (isp_test.go).
var HaystackGen = haystackGen
