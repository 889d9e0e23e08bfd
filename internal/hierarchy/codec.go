package hierarchy

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseTaxonomy reads a taxonomy from an indentation-based text format:
//
//	*
//	  Married
//	    CF-Spouse
//	    Spouse Present
//	  Not Married
//	    Separated
//	    Divorced
//
// The first non-empty line is the root; each subsequent line's depth is its
// leading indentation divided by two spaces (tabs count as one level).
// Blank lines and lines starting with '#' are ignored. Labels are trimmed.
func ParseTaxonomy(attr string, r io.Reader) (*Taxonomy, error) {
	scanner := bufio.NewScanner(r)
	type frame struct {
		node  *Node
		depth int
	}
	var root *Node
	var stack []frame
	line := 0
	for scanner.Scan() {
		line++
		raw := scanner.Text()
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		depth, err := indentDepth(raw)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: taxonomy %q line %d: %w", attr, line, err)
		}
		node := &Node{Label: trimmed}
		if root == nil {
			if depth != 0 {
				return nil, fmt.Errorf("hierarchy: taxonomy %q line %d: root must not be indented", attr, line)
			}
			root = node
			stack = []frame{{node, 0}}
			continue
		}
		if depth == 0 {
			return nil, fmt.Errorf("hierarchy: taxonomy %q line %d: second root %q", attr, line, trimmed)
		}
		// Pop to the parent level.
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("hierarchy: taxonomy %q line %d: bad indentation", attr, line)
		}
		parent := stack[len(stack)-1]
		if depth != parent.depth+1 {
			return nil, fmt.Errorf("hierarchy: taxonomy %q line %d: indentation jumps from %d to %d", attr, line, parent.depth, depth)
		}
		parent.node.Children = append(parent.node.Children, node)
		stack = append(stack, frame{node, depth})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("hierarchy: taxonomy %q: %w", attr, err)
	}
	if root == nil {
		return nil, fmt.Errorf("hierarchy: taxonomy %q: empty input", attr)
	}
	return NewTaxonomy(attr, root)
}

// indentDepth converts leading whitespace to a depth: every two spaces or
// one tab is one level. Mixed or odd indentation is rejected.
func indentDepth(line string) (int, error) {
	spaces, tabs := 0, 0
	for _, r := range line {
		if r == ' ' {
			spaces++
			continue
		}
		if r == '\t' {
			tabs++
			continue
		}
		break
	}
	if spaces > 0 && tabs > 0 {
		return 0, fmt.Errorf("mixed tab/space indentation")
	}
	if tabs > 0 {
		return tabs, nil
	}
	if spaces%2 != 0 {
		return 0, fmt.Errorf("odd indentation of %d spaces", spaces)
	}
	return spaces / 2, nil
}
