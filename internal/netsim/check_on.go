//go:build netsimcheck

package netsim

// Checked is forced on by the `netsimcheck` build tag: every fabric
// verifies the delivery-by-reference contract for Checksummer payloads,
// panicking the moment a sender mutates or recycles a message that is still
// in flight, and pooled payloads may quarantine what they release instead of
// recycling it. The checksum walk is O(payload) per delivery, which is why
// it is a debug build, not the default.
const Checked = true
