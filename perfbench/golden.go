package main

// goldenDigests pins each workload's canonical report at the default seed:
// the SHA-256 of the reports' JSON, which carry no timing fields. A change
// that keeps the simulator's output byte-identical keeps these.
var goldenDigests = map[string]string{
	"matrix":   "c17c094baea31ecdd81afb861defa3140d53df72d385bf42c60528d6a4416d59",
	"pipeline": "7f01e099e1a77e023a4baf724545c95b9710f4f303d789c39c9ade5fbfb10295",
	"fleet":    "e896bc8f237910d72bf231ef39009cb9e58d07a9587d043c0fd5177df568298b",
}
