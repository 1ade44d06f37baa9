package hostif

// FreeReadBuffers returns the number of available read buffers.
func (h *HostIf) FreeReadBuffers() int { return h.readFree.Available() }
