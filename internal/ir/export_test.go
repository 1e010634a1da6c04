package ir

// Steps returns how many instructions the interpreter has executed, for the
// external tests that compare it with the reference interpreter's count.
func (ip *Interp) Steps() int64 { return ip.steps }
