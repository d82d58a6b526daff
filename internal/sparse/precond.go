package sparse

// Precond is a retired preconditioner selector with no values left. The
// pdn sparse step path always runs modified IC(0) with a plain-IC(0)
// fallback on breakdown; the type survives only as the type of the ignored
// pdn.SimOptions.Precond and experiments.Config.Precond fields.
type Precond int
