module pscluster/bench

go 1.22

require pscluster v0.0.0

replace pscluster => ../
