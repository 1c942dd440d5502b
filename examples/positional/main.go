// Positional predicates: how the algebra evaluates position() and last()
// (paper sections 3.3.3, 3.3.4, 4.3.1) with the counting map χ_cp and the
// context-size operator Tmp^cs, including the stacked-translation variant
// Tmp^cs_c that detects context boundaries inside one pipelined tuple
// stream, and the positional windows with which the improved translation
// answers [k] and [last()] inside the location step instead.
package main

import (
	"fmt"
	"log"

	"natix"
)

const doc = `
<log>
  <day date="mon"><e>a</e><e>b</e><e>c</e></day>
  <day date="tue"><e>d</e></day>
  <day date="wed"><e>e</e><e>f</e></day>
</log>`

func main() {
	d, err := natix.ParseDocumentString(doc)
	if err != nil {
		log.Fatal(err)
	}
	root := natix.RootNode(d)

	show := func(expr string) {
		q, err := natix.Compile(expr)
		if err != nil {
			log.Fatal(err)
		}
		res, err := q.Run(root, nil)
		if err != nil {
			log.Fatal(err)
		}
		var vals []string
		nodes, _ := res.SortedNodeSet()
		for _, n := range nodes {
			vals = append(vals, n.StringValue())
		}
		fmt.Printf("%-42s -> %v\n", expr, vals)
	}

	// Positions count per context: each day's events independently.
	show("//day/e[1]")
	show("//day/e[last()]")
	show("//day/e[position() = last() - 1]")
	show("//day[last()]/e")
	show("//day/e[position() > 1][position() < 3]") // predicates renumber

	// Filter expressions count positions over the whole (document-ordered)
	// sequence instead (section 3.4.2) — note the difference:
	show("(//day/e)[1]")
	show("(//day/e)[last()]")
	show("(//e)[position() mod 2 = 1]")

	// Reverse axes count in reverse document order.
	show("//e[. = 'f']/../preceding-sibling::day[1]/@date")
	show("//e[. = 'f']/../preceding-sibling::day[last()]/@date")

	// The plans make the machinery visible. The improved translation
	// answers [2] and [last()] on the child axis inside the step, as a
	// positional window (the last() one walks each day's children from
	// the last); where no window applies, as for last() on the descendant
	// axis, Tmp^cs appears with its per-context variant in the stacked
	// pipeline. The canonical translation keeps χ_cp and Tmp^cs.
	for _, expr := range []string{"//day/e[2]", "//day/e[last()]", "/log/descendant::e[last()]"} {
		fmt.Printf("\nplan for %s:\n", expr)
		fmt.Print(natix.MustCompile(expr).ExplainAlgebra())
	}
	canon := natix.MustCompileWith("//day/e[last()]", natix.Options{Mode: natix.Canonical})
	fmt.Printf("\ncanonical plan for //day/e[last()]:\n%s", canon.ExplainAlgebra())
}
