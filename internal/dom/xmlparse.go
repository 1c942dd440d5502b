package dom

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseError reports a well-formedness violation with its input position.
type ParseError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse reads a complete XML document and builds a MemDoc. The parser is
// namespace-aware (prefixes are preserved, declarations become namespace
// records) and implements the subset of XML 1.0 needed by the XPath data
// model: elements, attributes, text, CDATA, comments, processing
// instructions, predefined and character entity references. DOCTYPE
// declarations are skipped.
func Parse(r io.Reader) (*MemDoc, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xml: read input: %w", err)
	}
	return ParseBytes(data)
}

// ParseString parses a document held in a string.
func ParseString(s string) (*MemDoc, error) { return ParseBytes([]byte(s)) }

// ParseBytes parses a document held in a byte slice.
func ParseBytes(data []byte) (*MemDoc, error) {
	p := &xmlParser{
		data: data,
		b:    NewBuilder(),
		line: 1,
		col:  1,
	}
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	return p.b.Doc(), nil
}

// nsBinding is one prefix binding on the namespace scope stack.
type nsBinding struct {
	prefix, uri string
	depth       int
}

type xmlParser struct {
	data      []byte
	pos       int
	line, col int
	b         *Builder
	scopes    []nsBinding
	depth     int
	sawRoot   bool
}

func (p *xmlParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *xmlParser) eof() bool { return p.pos >= len(p.data) }

func (p *xmlParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.data[p.pos]
}

func (p *xmlParser) advance() byte {
	c := p.data[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *xmlParser) hasPrefix(s string) bool {
	return p.pos+len(s) <= len(p.data) && string(p.data[p.pos:p.pos+len(s)]) == s
}

func (p *xmlParser) skip(n int) {
	for i := 0; i < n && !p.eof(); i++ {
		p.advance()
	}
}

func (p *xmlParser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *xmlParser) readName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return string(p.data[start:p.pos]), nil
}

// splitQName splits a qualified name into prefix and local part. ok is
// false when a colon leaves either part empty, which Namespaces in XML
// forbids.
func splitQName(q string) (prefix, local string, ok bool) {
	if i := strings.IndexByte(q, ':'); i >= 0 {
		return q[:i], q[i+1:], i > 0 && i < len(q)-1
	}
	return "", q, true
}

func (p *xmlParser) parseDocument() error {
	for !p.eof() {
		p.skipSpace()
		if p.eof() {
			break
		}
		if p.peek() != '<' {
			if p.sawRoot {
				// Trailing character data outside the root element must be
				// whitespace; skipSpace already consumed whitespace.
				return p.errf("content after root element")
			}
			return p.errf("content before root element")
		}
		switch {
		case p.hasPrefix("<?"):
			if err := p.parsePIOrDecl(true); err != nil {
				return err
			}
		case p.hasPrefix("<!--"):
			if err := p.parseComment(); err != nil {
				return err
			}
		case p.hasPrefix("<!DOCTYPE"):
			if err := p.skipDoctype(); err != nil {
				return err
			}
		case p.hasPrefix("<!"):
			return p.errf("unexpected markup declaration at top level")
		default:
			if p.sawRoot {
				return p.errf("multiple root elements")
			}
			p.sawRoot = true
			if err := p.parseElement(true); err != nil {
				return err
			}
		}
	}
	if !p.sawRoot {
		return p.errf("no root element")
	}
	return nil
}

func (p *xmlParser) skipDoctype() error {
	p.skip(len("<!DOCTYPE"))
	depth := 1
	inSubset := false
	for !p.eof() {
		c := p.advance()
		switch c {
		case '[':
			inSubset = true
		case ']':
			inSubset = false
		case '<':
			if inSubset {
				depth++
			}
		case '>':
			if inSubset {
				depth--
				continue
			}
			return nil
		}
	}
	return p.errf("unterminated DOCTYPE")
}

func (p *xmlParser) parseComment() error {
	p.skip(len("<!--"))
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("-->") {
			text := string(p.data[start:p.pos])
			if strings.Contains(text, "--") {
				return p.errf("'--' inside comment")
			}
			p.skip(3)
			if p.depth > 0 {
				p.b.Comment(text)
			}
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated comment")
}

// parsePIOrDecl parses <?...?>. The XML declaration (target "xml", only
// allowed once at the top) is skipped; real processing instructions become
// nodes when inside the root element.
func (p *xmlParser) parsePIOrDecl(topLevel bool) error {
	p.skip(2)
	target, err := p.readName()
	if err != nil {
		return err
	}
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("?>") {
			content := string(p.data[start:p.pos])
			p.skip(2)
			if strings.EqualFold(target, "xml") {
				if !topLevel || p.sawRoot {
					return p.errf("misplaced XML declaration")
				}
				return nil
			}
			if p.depth > 0 {
				p.b.ProcInstr(target, content)
			}
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated processing instruction")
}

// lookupNS resolves a prefix against the current scope stack. ok is false
// for unbound non-empty prefixes.
func (p *xmlParser) lookupNS(prefix string) (string, bool) {
	if prefix == "xml" {
		return XMLNamespaceURI, true
	}
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if p.scopes[i].prefix == prefix {
			return p.scopes[i].uri, true
		}
	}
	if prefix == "" {
		return "", true // no default namespace in scope
	}
	return "", false
}

type rawAttr struct {
	prefix, local, value string
}

func (p *xmlParser) parseElement(isRoot bool) error {
	p.advance() // consume '<'
	qname, err := p.readName()
	if err != nil {
		return err
	}
	ePrefix, eLocal, ok := splitQName(qname)
	if !ok {
		return p.errf("malformed qualified name %q", qname)
	}
	p.depth++

	var attrs []rawAttr
	var nsDecls []nsBinding
	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated start tag <%s>", qname)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.readName()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.eof() || p.peek() != '=' {
			return p.errf("expected '=' after attribute %s", aname)
		}
		p.advance()
		p.skipSpace()
		val, err := p.readAttValue()
		if err != nil {
			return err
		}
		aPrefix, aLocal, ok := splitQName(aname)
		if !ok {
			return p.errf("malformed qualified name %q", aname)
		}
		switch {
		case aname == "xmlns":
			nsDecls = append(nsDecls, nsBinding{prefix: "", uri: val, depth: p.depth})
		case aPrefix == "xmlns":
			if val == "" {
				return p.errf("cannot undeclare prefix %s", aLocal)
			}
			nsDecls = append(nsDecls, nsBinding{prefix: aLocal, uri: val, depth: p.depth})
		default:
			attrs = append(attrs, rawAttr{prefix: aPrefix, local: aLocal, value: val})
		}
	}
	p.scopes = append(p.scopes, nsDecls...)

	eURI, ok := p.lookupNS(ePrefix)
	if !ok {
		return p.errf("unbound namespace prefix %q", ePrefix)
	}
	p.b.StartElement(ePrefix, eLocal, eURI)
	if isRoot {
		// Materialize the implicit xml prefix so the namespace axis can
		// yield a node for it on every element (scopes include ancestors).
		p.b.NSDecl("xml", XMLNamespaceURI)
	}
	for _, d := range nsDecls {
		p.b.NSDecl(d.prefix, d.uri)
	}
	seen := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		uri := ""
		if a.prefix != "" {
			u, ok := p.lookupNS(a.prefix)
			if !ok {
				return p.errf("unbound namespace prefix %q", a.prefix)
			}
			uri = u
		}
		key := uri + "\x00" + a.local
		if _, dup := seen[key]; dup {
			return p.errf("duplicate attribute %s", a.local)
		}
		seen[key] = struct{}{}
		p.b.Attr(a.prefix, a.local, uri, a.value)
	}

	selfClosing := false
	if p.peek() == '/' {
		p.advance()
		selfClosing = true
	}
	if p.eof() || p.peek() != '>' {
		return p.errf("expected '>' to close tag <%s>", qname)
	}
	p.advance()

	if !selfClosing {
		if err := p.parseContent(qname); err != nil {
			return err
		}
	}
	p.b.EndElement()
	// Pop this element's namespace scope.
	for len(p.scopes) > 0 && p.scopes[len(p.scopes)-1].depth == p.depth {
		p.scopes = p.scopes[:len(p.scopes)-1]
	}
	p.depth--
	return nil
}

func (p *xmlParser) readAttValue() (string, error) {
	if p.eof() {
		return "", p.errf("expected attribute value")
	}
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", p.errf("attribute value must be quoted")
	}
	p.advance()
	var sb strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case quote:
			p.advance()
			return sb.String(), nil
		case '<':
			return "", p.errf("'<' in attribute value")
		case '&':
			s, err := p.readReference()
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		case '\t', '\n', '\r':
			// Attribute-value normalization: whitespace becomes a space.
			p.advance()
			sb.WriteByte(' ')
		default:
			p.advance()
			sb.WriteByte(c)
		}
	}
	return "", p.errf("unterminated attribute value")
}

func (p *xmlParser) readReference() (string, error) {
	p.advance() // '&'
	start := p.pos
	for !p.eof() && p.peek() != ';' {
		if p.pos-start > 32 {
			return "", p.errf("unterminated entity reference")
		}
		p.advance()
	}
	if p.eof() {
		return "", p.errf("unterminated entity reference")
	}
	name := string(p.data[start:p.pos])
	p.advance() // ';'
	switch name {
	case "amp":
		return "&", nil
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "apos":
		return "'", nil
	case "quot":
		return "\"", nil
	}
	if strings.HasPrefix(name, "#") {
		var code int64
		var err error
		if strings.HasPrefix(name, "#x") || strings.HasPrefix(name, "#X") {
			code, err = strconv.ParseInt(name[2:], 16, 32)
		} else {
			code, err = strconv.ParseInt(name[1:], 10, 32)
		}
		if err != nil || code < 0 || code > 0x10FFFF {
			return "", p.errf("invalid character reference &%s;", name)
		}
		return string(rune(code)), nil
	}
	return "", p.errf("unknown entity &%s;", name)
}

func (p *xmlParser) parseContent(openName string) error {
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			p.b.Text(text.String())
			text.Reset()
		}
	}
	for !p.eof() {
		c := p.peek()
		if c != '<' {
			if c == '&' {
				s, err := p.readReference()
				if err != nil {
					return err
				}
				text.WriteString(s)
				continue
			}
			p.advance()
			if c == '\r' {
				// End-of-line normalization.
				if !p.eof() && p.peek() == '\n' {
					continue
				}
				c = '\n'
			}
			text.WriteByte(c)
			continue
		}
		switch {
		case p.hasPrefix("</"):
			flush()
			p.skip(2)
			name, err := p.readName()
			if err != nil {
				return err
			}
			if name != openName {
				return p.errf("mismatched end tag </%s>, expected </%s>", name, openName)
			}
			p.skipSpace()
			if p.eof() || p.peek() != '>' {
				return p.errf("expected '>' in end tag")
			}
			p.advance()
			return nil
		case p.hasPrefix("<!--"):
			flush()
			if err := p.parseComment(); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			p.skip(len("<![CDATA["))
			start := p.pos
			for !p.eof() && !p.hasPrefix("]]>") {
				p.advance()
			}
			if p.eof() {
				return p.errf("unterminated CDATA section")
			}
			text.WriteString(string(p.data[start:p.pos]))
			p.skip(3)
		case p.hasPrefix("<?"):
			flush()
			if err := p.parsePIOrDecl(false); err != nil {
				return err
			}
		case p.hasPrefix("<!"):
			return p.errf("unexpected markup declaration in content")
		default:
			flush()
			if err := p.parseElement(false); err != nil {
				return err
			}
		}
	}
	return p.errf("unterminated element <%s>", openName)
}
