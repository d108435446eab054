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
	b := NewBuilder(name)
	var refs []int32 // the line's operand references, reused across lines
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# trace "); ok && b.Len() == 0 {
				b = NewBuilder(strings.TrimSpace(rest))
			}
			continue
		}
		var err error
		if refs, err = parseTextInstr(b, line, refs[:0]); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped on the line after the last one it returned.
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: longer than %d bytes: %w", lineNo+1, maxTextLine, err)
		}
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	t, err := b.Trace()
	if err != nil {
		return nil, fmt.Errorf("trace: ingested trace invalid: %w", err)
	}
	return t, nil
}

// parseTextInstr parses one instruction line into b, collecting its
// operand references in refs, and returns refs for reuse.
func parseTextInstr(b *Builder, line string, refs []int32) ([]int32, error) {
	fields := strings.Fields(line)
	i := b.Len()
	var class isa.Class
	switch fields[0] {
	case "int":
		class = isa.IntALU
	case "fp":
		class = isa.FPALU
	case "load":
		class = isa.Load
	case "store":
		class = isa.Store
	default:
		return nil, fmt.Errorf("unknown class %q (want int, fp, load or store)", fields[0])
	}
	mem := class == isa.Load || class == isa.Store
	sawAddr := false
	var memAddr uint64
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "^"):
			if sawAddr {
				return nil, fmt.Errorf("operand %q after the @address", f)
			}
			d, err := strconv.ParseUint(f[1:], 10, 32)
			if err != nil || d == 0 || uint64(d) > uint64(i) {
				return nil, fmt.Errorf("bad operand %q (want ^N, 1 <= N <= instruction index %d)", f, i)
			}
			if len(refs) >= 0xff {
				return nil, fmt.Errorf("too many operands (max %d)", 0xff)
			}
			refs = append(refs, int32(i)-int32(d))
		case strings.HasPrefix(f, "@"):
			if !mem {
				return nil, fmt.Errorf("@address on a non-memory %s", class)
			}
			if sawAddr {
				return nil, fmt.Errorf("duplicate @address %q", f)
			}
			a, err := strconv.ParseUint(strings.TrimPrefix(f[1:], "0x"), addrBase(f[1:]), 64)
			if err != nil {
				return nil, fmt.Errorf("bad address %q: %v", f, err)
			}
			memAddr, sawAddr = a, true
		default:
			return nil, fmt.Errorf("bad token %q (want ^N or @ADDR)", f)
		}
	}
	if mem && !sawAddr {
		return nil, fmt.Errorf("%s needs an @address", class)
	}
	if class == isa.Store {
		if len(refs) == 0 {
			return nil, fmt.Errorf("store needs a ^data operand")
		}
		// The text leads with the data; the slabs end with it.
		data := refs[0]
		refs = append(refs[:0], refs[1:]...)
		refs = append(refs, data)
	}
	for _, p := range refs {
		b.Ref(p)
	}
	b.Emit(class, memAddr)
	return refs, nil
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
	for i, c := range t.class {
		switch c {
		case isa.IntALU:
			bw.WriteString("int")
		case isa.FPALU:
			bw.WriteString("fp")
		case isa.Load:
			bw.WriteString("load")
		case isa.Store:
			bw.WriteString("store")
		default:
			return fmt.Errorf("trace: instr %d has unknown class %v", i, c)
		}
		// Stores lead with the data operand, everything else with Args;
		// loads carry only address producers.
		for _, refs := range [2][]int32{t.Args(i), t.Addr(i)} {
			for _, ref := range refs {
				fmt.Fprintf(bw, " ^%d", int32(i)-ref)
			}
		}
		if c == isa.Load || c == isa.Store {
			fmt.Fprintf(bw, " @%#x", t.memAddr[i])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Dump writes a human-readable listing of up to max instructions to w
// (max <= 0 dumps everything).
func Dump(w io.Writer, t *Trace, max int) error {
	if max <= 0 || max > t.Len() {
		max = t.Len()
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s: %d instructions (showing %d)\n", t.Name, t.Len(), max)
	for i := 0; i < max; i++ {
		in := t.At(i)
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
