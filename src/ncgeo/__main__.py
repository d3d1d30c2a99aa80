from ncgeo.cli import main
raise SystemExit(main())
