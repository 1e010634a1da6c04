package msg

// TouchedLinks counts the directed node pairs whose link has numbered at
// least one message leg or fate draw.
func (ic *Interconnect) TouchedLinks() int {
	c := 0
	for _, s := range ic.seqs {
		if s != 0 {
			c++
		}
	}
	return c
}
