//go:build !netsimcheck

package netsim

// Checked is off in normal builds; build with -tags netsimcheck (or set
// Config.CheckOwnership per fabric) to verify the delivery-by-reference
// contract on every delivery.
const Checked = false
