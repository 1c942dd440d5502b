package natix_test

import (
	"fmt"

	"natix"
)

// Compile and evaluate a positional query; node-sets come back as handles
// into the document.
func ExampleQuery_Run() {
	doc, _ := natix.ParseDocumentString(`<menu><dish>soup</dish><dish>stew</dish><dish>pie</dish></menu>`)
	q := natix.MustCompile("/menu/dish[position() > 1]")
	res, _ := q.Run(natix.RootNode(doc), nil)
	nodes, _ := res.SortedNodeSet()
	for _, n := range nodes {
		fmt.Println(n.StringValue())
	}
	// Output:
	// stew
	// pie
}

// Scalar expressions evaluate to booleans, numbers or strings directly.
func ExampleQuery_Run_scalar() {
	doc, _ := natix.ParseDocumentString(`<ns><n>4</n><n>6</n></ns>`)
	res, _ := natix.MustCompile("sum(//n) div count(//n)").Run(natix.RootNode(doc), nil)
	fmt.Println(res.Value.String())
	// Output: 5
}

// Variables are bound per execution.
func ExampleQuery_Run_variables() {
	doc, _ := natix.ParseDocumentString(`<xs><x>1</x><x>2</x><x>3</x></xs>`)
	q := natix.MustCompile("count(//x[. >= $min])")
	res, _ := q.Run(natix.RootNode(doc), map[string]natix.Value{"min": natix.Number(2)})
	fmt.Println(res.Value.String())
	// Output: 2
}

// The translated algebra plan of every query is inspectable; this is the
// paper's improved translation (section 4) with its pushed duplicate
// elimination after the descendant step, whose nested a contexts can reach
// the same b twice.
func ExampleQuery_ExplainAlgebra() {
	q := natix.MustCompile("//a/descendant::b")
	fmt.Print(q.ExplainAlgebra())
	// Output:
	// Π^D[c3]
	//   Υ[c3:c2/descendant::b]
	//     Υ[c2:c1/descendant::a]
	//       χ[c1:root(cn)]
	//         □
}

// CompileWith selects the canonical translation of section 3 (a d-join
// chain with one final duplicate elimination) instead.
func ExampleCompileWith() {
	q, _ := natix.CompileWith("//a/descendant::b", natix.Options{Mode: natix.Canonical})
	fmt.Print(q.ExplainAlgebra())
	// Output:
	// Π^D[c4]
	//   <d-join>
	//     <d-join>
	//       <d-join>
	//         χ[c1:root(cn)]
	//           □
	//         Υ[c2:c1/descendant-or-self::node()]
	//           □
	//       Υ[c3:c2/child::a]
	//         □
	//     Υ[c4:c3/descendant::b]
	//       □
}
