package ir

import (
	"fmt"

	"zipr/internal/irdb"
)

// IRDB dump. On request (zipr.Config.CaptureIR) the pipeline writes the
// IR it built into the relational IRDB, the store the paper gives tools
// to query; command-line tools then inspect the program with SELECT.

// DB table names used by SaveToDB.
const (
	TableInstructions = "instructions"
	TableFunctions    = "functions"
	TableFixedRanges  = "fixed_ranges"
	TableWarnings     = "warnings"
)

// SaveToDB writes the program's IR into db, creating the schema. The
// instruction table carries the logical links (fallthrough/target ids)
// exactly as the reassembler consumes them.
func SaveToDB(db *irdb.DB, p *Program) error {
	schemas := []irdb.Schema{
		{Name: TableInstructions, Cols: []irdb.Col{
			{Name: "iid", Type: irdb.Int}, // IR instruction id
			{Name: "mnem", Type: irdb.Text},
			{Name: "orig_addr", Type: irdb.Int},
			{Name: "pinned", Type: irdb.Bool},
			{Name: "fallthrough", Type: irdb.Int}, // IR id or 0
			{Name: "target", Type: irdb.Int},      // IR id or 0
			{Name: "abs_target", Type: irdb.Int},
		}},
		{Name: TableFunctions, Cols: []irdb.Col{
			{Name: "name", Type: irdb.Text},
			{Name: "entry_iid", Type: irdb.Int},
			{Name: "size", Type: irdb.Int},
		}},
		{Name: TableFixedRanges, Cols: []irdb.Col{
			{Name: "start", Type: irdb.Int},
			{Name: "length", Type: irdb.Int}, // "end" is an SQL keyword in real systems
		}},
		{Name: TableWarnings, Cols: []irdb.Col{
			{Name: "message", Type: irdb.Text},
		}},
	}
	for _, s := range schemas {
		if err := db.CreateTable(s); err != nil {
			return fmt.Errorf("save ir: %w", err)
		}
	}
	idOf := func(i *Instruction) int64 {
		if i == nil {
			return 0
		}
		return i.ID
	}
	for _, i := range p.Insts {
		_, err := db.Insert(TableInstructions, irdb.Row{
			"iid":         i.ID,
			"mnem":        i.Inst.String(),
			"orig_addr":   int64(i.OrigAddr),
			"pinned":      i.Pinned,
			"fallthrough": idOf(i.Fallthrough),
			"target":      idOf(i.Target),
			"abs_target":  int64(i.AbsTarget),
		})
		if err != nil {
			return fmt.Errorf("save ir: %w", err)
		}
	}
	for _, f := range p.Functions {
		_, err := db.Insert(TableFunctions, irdb.Row{
			"name":      f.Name,
			"entry_iid": idOf(f.Entry),
			"size":      int64(len(f.Insts)),
		})
		if err != nil {
			return fmt.Errorf("save ir: %w", err)
		}
	}
	for _, r := range p.Fixed {
		_, err := db.Insert(TableFixedRanges, irdb.Row{
			"start":  int64(r.Start),
			"length": int64(r.Len()),
		})
		if err != nil {
			return fmt.Errorf("save ir: %w", err)
		}
	}
	for _, w := range p.Warnings {
		if _, err := db.Insert(TableWarnings, irdb.Row{"message": w}); err != nil {
			return fmt.Errorf("save ir: %w", err)
		}
	}
	return nil
}
