package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"daesim/internal/isa"
)

// Textual address-trace interchange format — the one file format for
// traces: cmd/tracedump writes it with -text and reads it back, or an
// externally recorded trace, with -ingest. One instruction per line,
// program order:
//
//	# comment                     (blank lines and # lines are ignored)
//	# trace NAME                  (optional; names the trace)
//	int  [^N ...]
//	fp   [^N ...]
//	load [^N ...] @ADDR
//	store ^D [^N ...] @ADDR
//
// ^N is an operand reference N instructions back (N >= 1); ADDR is the
// memory address (0x-prefix for hex). Loads treat every reference as an
// address producer; stores treat the first (^D) as the stored data and
// the rest as address producers; int/fp references are plain data
// operands. The parsed trace passes the same Validate as every other
// source, so a recorded program that breaks the operand invariants is
// rejected with the offending line number, not simulated wrongly. A
// line longer than maxTextLine is rejected the same way.

// maxTextLine bounds one line of the textual format in bytes.
const maxTextLine = 1 << 20

// ReadText parses the textual trace format. name is used when the input
// carries no "# trace NAME" directive.
func ReadText(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTextLine)
	t := &Trace{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# trace "); ok && len(t.Instrs) == 0 {
				t.Name = strings.TrimSpace(rest)
			}
			continue
		}
		in, err := parseTextInstr(line, len(t.Instrs))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Instrs = append(t.Instrs, in)
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped on the line after the last one it returned.
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: longer than %d bytes: %w", lineNo+1, maxTextLine, err)
		}
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: ingested trace invalid: %w", err)
	}
	return t, nil
}

// parseTextInstr parses one instruction line at trace index i.
func parseTextInstr(line string, i int) (Instr, error) {
	fields := strings.Fields(line)
	var in Instr
	switch fields[0] {
	case "int":
		in.Class = isa.IntALU
	case "fp":
		in.Class = isa.FPALU
	case "load":
		in.Class = isa.Load
	case "store":
		in.Class = isa.Store
	default:
		return Instr{}, fmt.Errorf("unknown class %q (want int, fp, load or store)", fields[0])
	}
	mem := in.Class == isa.Load || in.Class == isa.Store
	sawAddr := false
	var refs []int32
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "^"):
			if sawAddr {
				return Instr{}, fmt.Errorf("operand %q after the @address", f)
			}
			d, err := strconv.ParseUint(f[1:], 10, 32)
			if err != nil || d == 0 || uint64(d) > uint64(i) {
				return Instr{}, fmt.Errorf("bad operand %q (want ^N, 1 <= N <= instruction index %d)", f, i)
			}
			if len(refs) >= 0xff {
				return Instr{}, fmt.Errorf("too many operands (max %d)", 0xff)
			}
			refs = append(refs, int32(i)-int32(d))
		case strings.HasPrefix(f, "@"):
			if !mem {
				return Instr{}, fmt.Errorf("@address on a non-memory %s", in.Class)
			}
			if sawAddr {
				return Instr{}, fmt.Errorf("duplicate @address %q", f)
			}
			a, err := strconv.ParseUint(strings.TrimPrefix(f[1:], "0x"), addrBase(f[1:]), 64)
			if err != nil {
				return Instr{}, fmt.Errorf("bad address %q: %v", f, err)
			}
			in.MemAddr, sawAddr = a, true
		default:
			return Instr{}, fmt.Errorf("bad token %q (want ^N or @ADDR)", f)
		}
	}
	if mem && !sawAddr {
		return Instr{}, fmt.Errorf("%s needs an @address", in.Class)
	}
	switch in.Class {
	case isa.Load:
		in.Addr = refs
	case isa.Store:
		if len(refs) == 0 {
			return Instr{}, fmt.Errorf("store needs a ^data operand")
		}
		in.Args, in.Addr = refs[:1], refs[1:]
		if len(in.Addr) == 0 {
			in.Addr = nil
		}
	default:
		in.Args = refs
	}
	return in, nil
}

func addrBase(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// WriteText renders t in the format ReadText parses, closing the
// round trip (tracedump -text).
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s\n", t.Name)
	for i := range t.Instrs {
		in := &t.Instrs[i]
		switch in.Class {
		case isa.IntALU:
			bw.WriteString("int")
		case isa.FPALU:
			bw.WriteString("fp")
		case isa.Load:
			bw.WriteString("load")
		case isa.Store:
			bw.WriteString("store")
		default:
			return fmt.Errorf("trace: instr %d has unknown class %v", i, in.Class)
		}
		// Stores lead with the data operand, everything else with Args;
		// loads carry only address producers.
		for _, ref := range append(append([]int32(nil), in.Args...), in.Addr...) {
			fmt.Fprintf(bw, " ^%d", int32(i)-ref)
		}
		if in.Class == isa.Load || in.Class == isa.Store {
			fmt.Fprintf(bw, " @%#x", in.MemAddr)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Dump writes a human-readable listing of up to max instructions to w
// (max <= 0 dumps everything).
func Dump(w io.Writer, t *Trace, max int) error {
	if max <= 0 || max > len(t.Instrs) {
		max = len(t.Instrs)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s: %d instructions (showing %d)\n", t.Name, len(t.Instrs), max)
	for i := 0; i < max; i++ {
		in := &t.Instrs[i]
		fmt.Fprintf(bw, "%7d  %-6s", i, in.Class)
		if len(in.Addr) > 0 {
			fmt.Fprintf(bw, " addr=%v", in.Addr)
		}
		if len(in.Args) > 0 {
			fmt.Fprintf(bw, " args=%v", in.Args)
		}
		if in.Class == isa.Load || in.Class == isa.Store {
			fmt.Fprintf(bw, " @%#x", in.MemAddr)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
