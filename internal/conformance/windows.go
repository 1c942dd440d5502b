package conformance

// WindowCases are the edge cases of positional windows: the predicates the
// improved translation answers inside the location step ([k], [position()
// < k], [position() <= k], [last()], [last() - k]) at and beyond their
// bounds, after and before a second predicate, from both ends of the
// sibling axes, over text and attribute nodes, and from contexts with
// nothing to count. Numeric forms that are not windows ([0], [-1], [2.5])
// must still select nothing.
//
// They are run on their own (RunCases), not appended to Cases: Cases is
// also the difftest corpus, whose every expression one op of the
// benchmark's compile_corpus workload compiles and runs, so growing it
// would change what that workload measures.
var WindowCases = []Case{
	{Doc: "basic", Expr: "/*/a[0]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a[-1]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a[2.5]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a[position() < 1]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a[position() <= 0]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/*[last() - 1000]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/*[position() = last() - 2]", Want: "nodes:a#1"},
	{Doc: "basic", Expr: "/*/a[1]/*[position() < 3]", Want: "nodes:b#2 b#3"},
	{Doc: "basic", Expr: "/*/a[1]/*[position() <= 2]", Want: "nodes:b#2 b#3"},
	{Doc: "basic", Expr: "/*/a/b[position() < 100]", Want: "nodes:b#2 b#3 b#6"},
	{Doc: "basic", Expr: "/*/*[position() = 3][1]", Want: "nodes:d#7"},
	{Doc: "basic", Expr: "/*/*[last()][1]", Want: "nodes:d#7"},
	{Doc: "basic", Expr: "/*/*[1][last()]", Want: "nodes:a#1"},
	{Doc: "basic", Expr: "/*/a/b[last()][1]", Want: "nodes:b#3 b#6"},
	{Doc: "basic", Expr: "//b[1][last()]", Want: "nodes:b#2 b#6"},
	{Doc: "basic", Expr: "//b[last() - 1]", Want: "nodes:b#2"},
	{Doc: "basic", Expr: "count(//*[1])", Want: "num:4"},
	{Doc: "basic", Expr: "/*/d/preceding-sibling::*[last()]", Want: "nodes:a#1"},
	{Doc: "basic", Expr: "/*/d/preceding-sibling::*[1]", Want: "nodes:a#5"},
	{Doc: "basic", Expr: "/*/a[1]/b[1]/following-sibling::*[last() - 1]", Want: "nodes:b#3"},
	{Doc: "basic", Expr: "/*/a[1]/b[1]/following-sibling::*[last()]", Want: "nodes:c#4"},
	{Doc: "basic", Expr: "/*/a/@*[1]", Want: "nodes:@id=1 @id=5"},
	{Doc: "basic", Expr: "/*/d/*[1]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/d/node()[last()]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a/x[last()]", Want: "nodes:"},
	{Doc: "basic", Expr: "/*/a[b[2]]", Want: "nodes:a#1"},
	{Doc: "mixed", Expr: "/m/y/child::node()[last()]", Want: "nodes:'t3'"},
	{Doc: "mixed", Expr: "/m/text()[last()]", Want: "nodes:'t2'"},
	{Doc: "mixed", Expr: "/m/node()[last() - 1]", Want: "nodes:?p"},
	{Doc: "mixed", Expr: "/m/node()[last() - 3]", Want: "nodes:'t2'"},
	{Doc: "mixed", Expr: "/m/node()[position() < 3]", Want: "nodes:'t1' x"},
	{Doc: "ns", Expr: "/r/*[last()]/@*[1]", Want: "nodes:@p:k=1"},
	{Doc: "ns", Expr: "/r/*[last()]/@*[last()]", Want: "nodes:@k=2"},
	{Doc: "deep", Expr: "//g/ancestor::*[2]", Want: "nodes:c#c"},
	{Doc: "deep", Expr: "//g/ancestor::*[last()]", Want: "nodes:a#a"},
	{Doc: "deep", Expr: "//d/following::*[2]", Want: "nodes:c#c"},
	{Doc: "deep", Expr: "//g/preceding::*[position() <= 2]", Want: "nodes:d#d e#e"},
}
