package node

// ForEachBatched lets the external test package look inside MsgBatch
// frames on the simulated wire.
var ForEachBatched = forEachBatched
