//go:build netsimcheck

package wal

// checked is forced on by the netsimcheck build tag, the build that checks
// buffer ownership across the repository: a scan poisons each extent buffer
// once its records' visits are over, so a payload kept past its visit reads
// poison instead of passing silently.
const checked = true
