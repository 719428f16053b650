package qasm

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/circuit"
)

// Parse reads an OpenQASM 2.0 program and returns the flattened circuit.
// Supported statements: OPENQASM version header, include (ignored),
// qreg/creg declarations, the qelib1 gate set (see applyGate), barrier
// (ignored), measure and reset (positioned non-unitary ops in the IR) and
// `if (creg == value) qop;` classical control.
func Parse(src, name string) (*circuit.Circuit, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, name: name, qregs: map[string]qreg{},
		cregs: map[string]qreg{}, gateDefs: map[string]*gateDef{}}
	return p.parse()
}

type qreg struct {
	offset, size int
}

type parser struct {
	toks []token
	pos  int
	name string

	qregs   map[string]qreg
	nqubits int
	cregs   map[string]qreg
	ncbits  int

	// User-defined gates and, during macro expansion, the active bindings.
	gateDefs  map[string]*gateDef
	bindings  map[string]float64
	localArgs map[string]int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return errAt(t.line, format, args...)
}

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != s {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) parse() (*circuit.Circuit, error) {
	var pending []pendingOp
	for {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			goto done
		case t.kind == tokIdent && t.text == "OPENQASM":
			if v := p.next(); v.kind != tokNumber {
				return nil, p.errf(v, "expected version number")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "include":
			if s := p.next(); s.kind != tokString {
				return nil, p.errf(s, "expected include path")
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && (t.text == "qreg" || t.text == "creg"):
			nameTok := p.next()
			if nameTok.kind != tokIdent {
				return nil, p.errf(nameTok, "expected register name")
			}
			if err := p.expectSymbol("["); err != nil {
				return nil, err
			}
			szTok := p.next()
			sz, err := strconv.Atoi(szTok.text)
			if err != nil || sz <= 0 {
				return nil, p.errf(szTok, "bad register size %q", szTok.text)
			}
			if err := p.expectSymbol("]"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol(";"); err != nil {
				return nil, err
			}
			if t.text == "qreg" {
				p.qregs[nameTok.text] = qreg{offset: p.nqubits, size: sz}
				p.nqubits += sz
			} else {
				p.cregs[nameTok.text] = qreg{offset: p.ncbits, size: sz}
				p.ncbits += sz
			}
		case t.kind == tokIdent && t.text == "gate":
			if err := p.parseGateDef(false); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "opaque":
			if err := p.parseGateDef(true); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "barrier":
			for p.peek().kind != tokEOF {
				if tt := p.next(); tt.kind == tokSymbol && tt.text == ";" {
					break
				}
			}
		case t.kind == tokIdent && t.text == "if":
			ops, err := p.parseIf(t)
			if err != nil {
				return nil, err
			}
			pending = append(pending, ops...)
		case t.kind == tokIdent:
			ops, err := p.parseQop(t, nil)
			if err != nil {
				return nil, err
			}
			pending = append(pending, ops...)
		default:
			return nil, p.errf(t, "unexpected token %q", t.text)
		}
	}
done:
	if p.nqubits == 0 {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	c := circuit.New(p.name, p.nqubits)
	c.Cbits = p.ncbits
	for _, op := range pending {
		if err := op.lower(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

type pendingGate struct {
	name   string
	params []float64
	args   []int
	line   int
}

// opKind discriminates the three positioned statement forms.
type opKind int

const (
	opGate opKind = iota
	opMeasure
	opReset
)

// pendingOp is one positioned circuit op awaiting lowering (gate lowering
// needs the final qubit count, so statements are collected first).
type pendingOp struct {
	kind  opKind
	gate  pendingGate // opGate
	qubit int         // opMeasure/opReset
	clbit int         // opMeasure
	cond  *circuit.Cond
	line  int
}

// lower appends the op to the circuit. A classical condition is attached to
// every gate the op lowers to (multi-gate lowerings like swap fire
// all-or-nothing, so guarding each emitted gate is exact).
func (op pendingOp) lower(c *circuit.Circuit) error {
	start := c.Len()
	switch op.kind {
	case opMeasure:
		c.Measure(op.qubit, op.clbit)
	case opReset:
		c.Reset(op.qubit)
	default:
		if err := applyGate(c, op.gate); err != nil {
			return err
		}
	}
	if op.cond != nil {
		for i := start; i < c.Len(); i++ {
			c.Gates[i].Cond = op.cond
		}
	}
	return nil
}

// parseQop parses one quantum operation statement (gate application,
// measure, or reset) starting at its head token, attaching cond to every
// resulting op.
func (p *parser) parseQop(head token, cond *circuit.Cond) ([]pendingOp, error) {
	switch head.text {
	case "measure":
		return p.parseMeasure(head, cond)
	case "reset":
		qs, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(";"); err != nil {
			return nil, err
		}
		ops := make([]pendingOp, len(qs))
		for i, q := range qs {
			ops[i] = pendingOp{kind: opReset, qubit: q, cond: cond, line: head.line}
		}
		return ops, nil
	default:
		gs, err := p.parseGate(head)
		if err != nil {
			return nil, err
		}
		ops := make([]pendingOp, len(gs))
		for i, g := range gs {
			ops[i] = pendingOp{kind: opGate, gate: g, cond: cond, line: g.line}
		}
		return ops, nil
	}
}

// parseMeasure parses `measure q[i] -> c[j];` (or the whole-register form,
// which broadcasts element-wise and requires equal sizes).
func (p *parser) parseMeasure(head token, cond *circuit.Cond) ([]pendingOp, error) {
	qs, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if a := p.next(); a.kind != tokArrow {
		return nil, p.errf(a, "expected -> in measure")
	}
	cs, err := p.parseClOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	if len(qs) != len(cs) {
		return nil, errAt(head.line, "measure register sizes differ (%d qubits -> %d classical bits)",
			len(qs), len(cs))
	}
	ops := make([]pendingOp, len(qs))
	for i := range qs {
		ops[i] = pendingOp{kind: opMeasure, qubit: qs[i], clbit: cs[i], cond: cond, line: head.line}
	}
	return ops, nil
}

// parseIf parses `if (creg == value) qop;` — OpenQASM 2.0 conditions compare
// one whole classical register against a non-negative integer.
func (p *parser) parseIf(head token) ([]pendingOp, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	regTok := p.next()
	if regTok.kind != tokIdent {
		return nil, p.errf(regTok, "expected classical register in if, got %q", regTok.text)
	}
	r, ok := p.cregs[regTok.text]
	if !ok {
		return nil, p.errf(regTok, "unknown classical register %q", regTok.text)
	}
	if r.size > 64 {
		return nil, p.errf(regTok, "register %s[%d] too wide for a classical condition (max 64)",
			regTok.text, r.size)
	}
	if eq := p.next(); eq.kind != tokEquals {
		return nil, p.errf(eq, "expected == in if, got %q", eq.text)
	}
	valTok := p.next()
	val, err := strconv.ParseUint(valTok.text, 10, 64)
	if err != nil {
		return nil, p.errf(valTok, "bad comparison value %q in if", valTok.text)
	}
	if r.size < 64 && val >= 1<<uint(r.size) {
		return nil, p.errf(valTok, "comparison value %d does not fit register %s[%d]",
			val, regTok.text, r.size)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	body := p.next()
	if body.kind != tokIdent {
		return nil, p.errf(body, "expected quantum op after if, got %q", body.text)
	}
	if body.text == "if" {
		return nil, p.errf(body, "nested if is not allowed")
	}
	cond := &circuit.Cond{Offset: r.offset, Width: r.size, Value: val}
	return p.parseQop(body, cond)
}

// parseClOperand parses a classical operand "c" (whole register) or "c[3]"
// and returns the global classical bit indices.
func (p *parser) parseClOperand() ([]int, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected classical register operand, got %q", t.text)
	}
	r, ok := p.cregs[t.text]
	if !ok {
		return nil, p.errf(t, "unknown classical register %q", t.text)
	}
	if p.peek().kind == tokSymbol && p.peek().text == "[" {
		p.next()
		it := p.next()
		idx, err := strconv.Atoi(it.text)
		if err != nil || idx < 0 || idx >= r.size {
			return nil, p.errf(it, "bad index %q into register %s[%d]", it.text, t.text, r.size)
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		return []int{r.offset + idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

// parseOperand parses "q" (whole register) or "q[3]" and returns the global
// qubit indices. Inside a gate-definition body, bare formal argument names
// resolve through localArgs.
func (p *parser) parseOperand() ([]int, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errf(t, "expected register operand, got %q", t.text)
	}
	if idx, ok := p.localArgs[t.text]; ok {
		return []int{idx}, nil
	}
	r, ok := p.qregs[t.text]
	if !ok {
		return nil, p.errf(t, "unknown quantum register %q", t.text)
	}
	if p.peek().kind == tokSymbol && p.peek().text == "[" {
		p.next()
		it := p.next()
		idx, err := strconv.Atoi(it.text)
		if err != nil || idx < 0 || idx >= r.size {
			return nil, p.errf(it, "bad index %q into register %s[%d]", it.text, t.text, r.size)
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		return []int{r.offset + idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

// parseGate parses one gate application statement starting at the name token.
func (p *parser) parseGate(nameTok token) ([]pendingGate, error) {
	var params []float64
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			params = append(params, v)
			t := p.next()
			if t.kind == tokSymbol && t.text == ")" {
				break
			}
			if !(t.kind == tokSymbol && t.text == ",") {
				return nil, p.errf(t, "expected , or ) in parameter list")
			}
		}
	}
	var operands [][]int
	for {
		qs, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		operands = append(operands, qs)
		t := p.next()
		if t.kind == tokSymbol && t.text == ";" {
			break
		}
		if !(t.kind == tokSymbol && t.text == ",") {
			return nil, p.errf(t, "expected , or ; after operand")
		}
	}
	// Broadcast whole-register operands: all operand lists must have equal
	// length (or length 1).
	width := 1
	for _, o := range operands {
		if len(o) > width {
			width = len(o)
		}
	}
	def := p.gateDefs[nameTok.text]
	var out []pendingGate
	for i := 0; i < width; i++ {
		args := make([]int, len(operands))
		for j, o := range operands {
			switch {
			case len(o) == 1:
				args[j] = o[0]
			case len(o) == width:
				args[j] = o[i]
			default:
				return nil, p.errf(nameTok, "mismatched register sizes in %s", nameTok.text)
			}
			for _, prev := range args[:j] {
				if prev == args[j] {
					return nil, p.errf(nameTok, "qubit %d used twice in one %s", args[j], nameTok.text)
				}
			}
		}
		if def != nil {
			expanded, err := p.expandDef(def, params, args, nameTok.line)
			if err != nil {
				return nil, err
			}
			out = append(out, expanded...)
			continue
		}
		out = append(out, pendingGate{name: nameTok.text, params: params, args: args, line: nameTok.line})
	}
	return out, nil
}

// parseExpr evaluates a constant parameter expression with + - * / ^, unary
// minus, parentheses and the constant pi.
func (p *parser) parseExpr() (float64, error) { return p.parseAddSub() }

func (p *parser) parseAddSub() (float64, error) {
	v, err := p.parseMulDiv()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMulDiv()
			if err != nil {
				return 0, err
			}
			if t.text == "+" {
				v += r
			} else {
				v -= r
			}
			continue
		}
		return v, nil
	}
}

func (p *parser) parseMulDiv() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "^") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			switch t.text {
			case "*":
				v *= r
			case "/":
				v /= r
			case "^":
				v = math.Pow(v, r)
			}
			continue
		}
		return v, nil
	}
}

func (p *parser) parseUnary() (float64, error) {
	t := p.next()
	switch {
	case t.kind == tokSymbol && t.text == "-":
		v, err := p.parseUnary()
		return -v, err
	case t.kind == tokSymbol && t.text == "+":
		return p.parseUnary()
	case t.kind == tokSymbol && t.text == "(":
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errf(t, "bad number %q", t.text)
		}
		return v, nil
	case t.kind == tokIdent && t.text == "pi":
		return math.Pi, nil
	case t.kind == tokIdent:
		if v, ok := p.bindings[t.text]; ok {
			return v, nil
		}
	}
	return 0, p.errf(t, "unexpected token %q in expression", t.text)
}

// applyGate lowers a qelib1-style gate application onto the circuit IR.
func applyGate(c *circuit.Circuit, g pendingGate) error {
	need := func(nArgs, nParams int) error {
		if len(g.args) != nArgs {
			return errAt(g.line, "%s expects %d operand(s), got %d", g.name, nArgs, len(g.args))
		}
		if len(g.params) != nParams {
			return errAt(g.line, "%s expects %d parameter(s), got %d", g.name, nParams, len(g.params))
		}
		return nil
	}
	ctl := func(qs ...int) []circuit.Control {
		cs := make([]circuit.Control, len(qs))
		for i, q := range qs {
			cs[i] = circuit.Control{Qubit: q}
		}
		return cs
	}
	switch g.name {
	case "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "id", "i":
		if err := need(1, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: g.name, Target: g.args[0]})
	case "rz", "rx", "ry", "p", "u1", "phase":
		if err := need(1, 1); err != nil {
			return err
		}
		name := g.name
		if name == "u1" || name == "phase" {
			name = "p"
		}
		c.Append(circuit.Gate{Name: name, Target: g.args[0], Params: g.params})
	case "u", "u3":
		if err := need(1, 3); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "u", Target: g.args[0], Params: g.params})
	case "u2":
		if err := need(1, 2); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "u", Target: g.args[0],
			Params: []float64{math.Pi / 2, g.params[0], g.params[1]}})
	case "cx", "CX":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "x", Target: g.args[1], Controls: ctl(g.args[0])})
	case "cz":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "z", Target: g.args[1], Controls: ctl(g.args[0])})
	case "cy":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "y", Target: g.args[1], Controls: ctl(g.args[0])})
	case "ch":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "h", Target: g.args[1], Controls: ctl(g.args[0])})
	case "crz", "cp", "cu1":
		if err := need(2, 1); err != nil {
			return err
		}
		name := "p"
		if g.name == "crz" {
			name = "rz"
		}
		c.Append(circuit.Gate{Name: name, Target: g.args[1], Controls: ctl(g.args[0]), Params: g.params})
	case "ccx":
		if err := need(3, 0); err != nil {
			return err
		}
		c.Append(circuit.Gate{Name: "x", Target: g.args[2], Controls: ctl(g.args[0], g.args[1])})
	case "swap":
		if err := need(2, 0); err != nil {
			return err
		}
		c.Swap(g.args[0], g.args[1])
	case "cswap":
		if err := need(3, 0); err != nil {
			return err
		}
		// Fredkin via three Toffolis.
		a, b, ctlq := g.args[1], g.args[2], g.args[0]
		c.Append(circuit.Gate{Name: "x", Target: b, Controls: ctl(ctlq, a)})
		c.Append(circuit.Gate{Name: "x", Target: a, Controls: ctl(ctlq, b)})
		c.Append(circuit.Gate{Name: "x", Target: b, Controls: ctl(ctlq, a)})
	default:
		return errAt(g.line, "unsupported gate %q", g.name)
	}
	return nil
}
