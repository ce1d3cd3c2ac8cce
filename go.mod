module github.com/tempest-sim/tempest

go 1.23
