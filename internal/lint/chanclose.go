package lint

// ChanClose flags the PR 8 stream-writer race shape: a channel closed
// in one function while a send on the same channel is reachable from a
// goroutine spawned elsewhere. A send on a closed channel panics, and
// because the send sits behind a spawn edge the linter cannot prove it
// happens-before the close — the fix that shipped (a sentinel frame
// instead of close, with the channel deliberately never closed) is the
// pattern the rule steers toward.
//
// Precisely: for a close of channel ch in function F, the rule fires
// when some go statement spawns a function G such that a send on ch is
// reachable from G (following call and nested spawn edges) while F is
// not — if F were reachable, close and send could be ordered by the
// same goroutine and the shape is the ordinary producer-closes-its-own
// -channel idiom (the tokens case in the stream fixture).
var ChanClose = &Analyzer{
	Name: RuleChanClose,
	Doc: "flags close(ch) when a send on ch is reachable from a goroutine " +
		"spawned outside the closing function's own call tree — the " +
		"send-on-closed-channel race; prefer a sentinel value over close",
	RunModule: runChanClose,
}

func runChanClose(pass *ModulePass) {
	g := pass.Graph
	for _, fi := range g.Funcs {
		for _, op := range fi.ChanOps {
			if op.Kind != ChanOpClose || op.Ch == nil {
				continue
			}
			ci := g.Chans[op.Ch]
			if ci == nil || len(ci.Sends) == 0 {
				continue
			}
			spawner, spawn, send := g.concurrentSend(fi, ci)
			if spawn == nil {
				continue
			}
			pass.Reportf(op.Pos,
				"close of channel %q can race the send at %s reachable from the goroutine spawned at %s (in %s); hand the lifecycle to one goroutine — e.g. a sentinel value instead of close — or annotate //doralint:allow %s <reason>",
				op.Ch.Name(), pass.pos(send.Pos), pass.pos(spawn.Pos), spawner.Name, RuleChanClose)
		}
	}
}

// concurrentSend looks for a spawn site whose goroutine can reach a
// send on ci's channel without being able to reach the closing
// function. It returns the spawning function, the spawn edge, and the
// offending send, or nils.
func (g *Graph) concurrentSend(closer *FuncInfo, ci *ChanInfo) (*FuncInfo, *Edge, *OpRef) {
	for _, fi := range g.Funcs {
		for i := range fi.Spawns {
			sp := &fi.Spawns[i]
			r := g.reach(sp.To, true)
			if r[closer] {
				continue
			}
			for j := range ci.Sends {
				if r[ci.Sends[j].Fn] {
					return fi, sp, &ci.Sends[j]
				}
			}
		}
	}
	return nil, nil, nil
}
