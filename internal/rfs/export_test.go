package rfs

// totalPages returns the number of flash pages in the log.
func (fs *FS) totalPages() int { return len(fs.Log.Units) * fs.geo.PagesPerBlock }

// LeakPageOp takes a page op from the log's pool and never returns it:
// a read whose completion the port swallows. It is the leak a drain
// check must name.
func (fs *FS) LeakPageOp() {
	port := fs.Log.Port
	fs.Log.Port = swallow{}
	fs.Log.Read(0, 0, func([]byte, error) {})
	fs.Log.Port = port
}

// swallow is a port that never completes anything.
type swallow struct{}

func (swallow) Read(int, uint8, func([]byte, error))    {}
func (swallow) Program(int, uint8, []byte, func(error)) {}
func (swallow) Erase(int, func(error))                  {}
