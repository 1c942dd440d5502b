package server

import (
	"encoding/json"
	"math"
	"unicode/utf8"
)

// queryResultJSON is QueryResult without its UnmarshalJSON method: the type
// encoding/json decodes by reflection when the fast path declines.
type queryResultJSON QueryResult

// UnmarshalJSON decodes a result payload. A result node-set is most of a
// served answer, and every Go caller decodes it here: the client, the
// coordinator reading shard replies, any json.Unmarshal of a response.
//
// The fast path reads the node-set shape serialize and encoding/json write:
// known keys in exact case, each at most once, an integer count, strings
// that are valid UTF-8. The node list is sized from count, bounded by what
// the body can hold. Kinds are string constants and every other value is a
// substring of one copy of b, so the decoded result aliases nothing of b;
// but a caller that keeps any one name or value keeps that whole copy
// alive, and should strings.Clone what it keeps of a large answer. A
// string holding escapes is unescaped on its own. Scalar answers, which
// are a few bytes, and any other input fall back to encoding/json, so a
// zero QueryResult always decodes to what encoding/json would produce. A
// reused receiver keeps the fields b lacks, as with encoding/json, but its
// node list is replaced rather than decoded into element by element.
func (r *QueryResult) UnmarshalJSON(b []byte) error {
	out := *r
	d := resultDecoder{b: b}
	if d.result(&out) {
		*r = out
		return nil
	}
	return json.Unmarshal(b, (*queryResultJSON)(r))
}

// The keys of a node-set result object and of a node object, each key a
// bit of the seen-set that rejects a repeated key: key i of a list is bit
// 1<<i. A scalar answer's boolean, number or string key declines.
var (
	resultKeys = []string{"kind", "count", "nodes", "truncated"}
	nodeKeys   = []string{"kind", "name", "value"}
)

const (
	keyKind = 1 << iota
	keyCount
	keyNodes
	keyTruncated
)

const (
	keyNodeKind = 1 << iota
	keyNodeName
	keyNodeValue
)

// wireKinds are the kind strings serialize writes for a node-set and its
// nodes; a decoded kind equal to one of them is that constant, not a copy.
var wireKinds = [...]string{
	"node-set", "document", "element", "attribute", "text", "comment",
	"processing-instruction", "namespace", "node",
}

// minNodeJSON is the length of the shortest node object the fast path
// accepts in a list, its comma included: no more nodes than the remaining
// bytes over this fit.
const minNodeJSON = len(`{"name":""},`)

// resultDecoder is the fast path's cursor over one payload.
type resultDecoder struct {
	b []byte
	i int
	// s is string(b), made by the first value that needs it.
	s string
}

// result decodes the whole of b into r; false means the fast path declines.
func (d *resultDecoder) result(r *QueryResult) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return d.end()
	}
	seen := 0
	for {
		bit := d.key(resultKeys)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		switch bit {
		case keyKind:
			r.Kind, ok = d.kind()
		case keyCount:
			r.Count, ok = d.integer()
		case keyNodes:
			r.Nodes, ok = d.nodes(r.Count)
		case keyTruncated:
			r.Truncated, ok = d.boolean()
		}
		if !ok {
			return false
		}
		if d.eat(',') {
			continue
		}
		return d.eat('}') && d.end()
	}
}

// nodes decodes a node list, sized from count.
func (d *resultDecoder) nodes(count int) ([]QueryNode, bool) {
	if !d.eat('[') {
		return nil, false
	}
	// A hostile count cannot force a huge allocation: no more nodes fit in
	// what is left of the body.
	out := make([]QueryNode, 0, min(max(count, 0), (len(d.b)-d.i)/minNodeJSON+1))
	if d.eat(']') {
		return out, true
	}
	for {
		if !d.eat('{') {
			return nil, false
		}
		var n QueryNode
		seen := 0
		for {
			bit := d.key(nodeKeys)
			if bit == 0 || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
			var ok bool
			switch bit {
			case keyNodeKind:
				n.Kind, ok = d.kind()
			case keyNodeName:
				n.Name, ok = d.text()
			case keyNodeValue:
				n.Value, ok = d.text()
			}
			if !ok {
				return nil, false
			}
			if d.eat(',') {
				continue
			}
			if d.eat('}') {
				break
			}
			return nil, false
		}
		out = append(out, n)
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return out, true
		}
		return nil, false
	}
}

// key scans an object key and the colon after it, and returns the key's
// bit: 1<<i for names[i] in exact case, 0 for any other key.
func (d *resultDecoder) key(names []string) int {
	j, k, esc, ok := d.str()
	if !ok || esc || !d.eat(':') {
		return 0
	}
	for i, n := range names {
		if string(d.b[j:k]) == n {
			return 1 << i
		}
	}
	return 0
}

// kind decodes a kind string, as a constant when it is one.
func (d *resultDecoder) kind() (string, bool) {
	j, k, esc, ok := d.str()
	if !ok {
		return "", false
	}
	if !esc {
		for _, c := range wireKinds {
			if string(d.b[j:k]) == c {
				return c, true
			}
		}
	}
	return d.value(j, k, esc)
}

// text decodes a string.
func (d *resultDecoder) text() (string, bool) {
	j, k, esc, ok := d.str()
	if !ok {
		return "", false
	}
	return d.value(j, k, esc)
}

// value returns the string whose raw content is b[j:k]: a substring of the
// decoder's one copy of b, or, when it holds escapes, a string unescaped on
// its own by encoding/json.
func (d *resultDecoder) value(j, k int, esc bool) (string, bool) {
	if esc {
		var s string
		if json.Unmarshal(d.b[j-1:k+1], &s) != nil {
			return "", false
		}
		return s, true
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	return d.s[j:k], true
}

// str scans a string and returns the bounds of its raw content and whether
// it holds escapes. It declines a control character, invalid UTF-8 and an
// unterminated string.
func (d *resultDecoder) str() (j, k int, esc, ok bool) {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return 0, 0, false, false
	}
	j = d.i + 1
	high := false
	for k = j; k < len(d.b); k++ {
		switch c := d.b[k]; {
		case c == '"':
			if high && !utf8.Valid(d.b[j:k]) {
				return 0, 0, false, false
			}
			d.i = k + 1
			return j, k, esc, true
		case c == '\\':
			esc = true
			k++ // the escaped byte cannot end the string
		case c < 0x20:
			return 0, 0, false, false
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	return 0, 0, false, false
}

// integer decodes an integer that fits an int with room to spare; a larger
// magnitude declines, and so does a fraction or an exponent, since no
// comma or brace follows the digits then.
func (d *resultDecoder) integer() (int, bool) {
	d.ws()
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		if v > (math.MaxInt-9)/10 {
			return 0, false
		}
		v = v*10 + int(d.b[i]-'0')
	}
	if i == start || i-start > 1 && d.b[start] == '0' {
		return 0, false
	}
	d.i = i
	if neg {
		v = -v
	}
	return v, true
}

// boolean decodes true or false.
func (d *resultDecoder) boolean() (bool, bool) {
	d.ws()
	switch rest := d.b[d.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// eat consumes c after optional whitespace.
func (d *resultDecoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (d *resultDecoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

func (d *resultDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
