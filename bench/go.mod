module btpub/bench

go 1.24

require btpub v0.0.0

replace btpub => ../
