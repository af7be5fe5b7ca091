package plan

// GreedyJoinTree exposes the greedy fallback, which Optimize runs only
// on BGP leaves beyond MaxDPPatterns, so the reference test can compare it
// on every leaf.
var GreedyJoinTree = optimizeGreedy
