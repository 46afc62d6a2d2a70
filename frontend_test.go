package perfq

import "testing"

// The query front end has one rule for what an operator, a literal or
// min / max / abs means, whatever the names around them resolve to.

// aggregateColumnCalls names the upstream MAX and MIN columns by their
// calls, as the paper's "WHERE SUM(tout-tin) > L" names a SUM: a one-
// argument max is a column, never the two-argument scalar function (a
// lowering that took it for one built a call the fold compiler indexed
// out of range).
const aggregateColumnCalls = "R1 = SELECT MAX(pkt_len), MIN(tin) GROUPBY pkt_len\n" +
	"R2 = SELECT * FROM R1 WHERE max(pkt_len) > 100 and MIN(tin) > 0\n"

func TestJoinScalarFunctions(t *testing.T) {
	src := "R1 = SELECT COUNT GROUPBY srcip\nR2 = SELECT COUNT GROUPBY srcip WHERE proto == 6\n" +
		"R3 = SELECT max(R1.count, R2.count) AS hi, min(R1.count, R2.count) AS lo, abs(R2.count - R1.count) AS gap " +
		"FROM R1 JOIN R2 ON srcip WHERE max(R1.count, R2.count) > 1\n"
	requireRunMatchesTruth(t, src, limitTrace(t))
}

func TestAggregateColumnCalls(t *testing.T) {
	requireRunMatchesTruth(t, aggregateColumnCalls, limitTrace(t))
}
