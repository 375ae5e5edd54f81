//go:build !netsimcheck

package wal

// checked is off in normal builds; build with -tags netsimcheck to poison
// recycled scan buffers.
const checked = false
