module heterodc/bench

go 1.22

require heterodc v0.0.0

replace heterodc => ../
