"""numpy's ``default_rng(seed)`` stream in pure Python, bit for bit.

:class:`Stream` draws the starting points' and the poll directions' random
numbers.  It repeats the algorithms of numpy's ``Generator`` over ``PCG64``
(numpy 1.17 on) so that a seed gives the same floats as
``numpy.random.default_rng(seed)``:

- seeding is ``SeedSequence`` for an integer seed of any size, whose
  ``generate_state(4, uint64)`` gives ``PCG64``'s 128-bit state and
  increment;
- each draw is one step of the 128-bit LCG, output by XSL-RR 128/64
  (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation", 2014);
- :meth:`Stream.random` is ``(next64 >> 11) * 2**-53``, and
  :meth:`Stream.uniform` is ``low + (high - low) * random()``;
- :meth:`Stream.standard_normal` is numpy's 256-layer ziggurat (G. Marsaglia
  and W. W. Tsang, "The Ziggurat Method for Generating Random Variables",
  J. Stat. Softw. 5(8), 2000) with numpy's own ``ki_double``, ``wi_double``
  and ``fi_double`` tables, which no formula reproduces exactly and which
  are therefore stored below, as they sit in numpy.

The stream is fixed by this file, not by the numpy version or the BLAS build
installed, and needs no numpy at all.  The algorithms and tables are
numpy's (``numpy/random``, Copyright (c) 2005-2024, NumPy Developers,
BSD-3-Clause licence).
"""

from __future__ import annotations

import binascii
import math
import struct
from typing import List, Optional, Union

__all__ = ["Stream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596

# ki_double (uint64), wi_double and fi_double (float64), 256 entries each,
# little-endian, as numpy's random/src/distributions/ziggurat_constants.h
# holds them
_TABLES = binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL/2HtNw8A"
    "XCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A"
    "+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A"
    "0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G0Q8A"
    "UPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8A"
    "jF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8A"
    "QO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8A"
    "KgDQmbfjDwB/rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8A"
    "eNXGdXvmDwCqER5mvuYPAPL05VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8A"
    "ZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8A"
    "pGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbxKf1b7A8A"
    "9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3E+0PAANJhI8n7Q8A"
    "TC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8A"
    "Um6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8A"
    "PJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8A"
    "skpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahRmO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8A"
    "cS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nuDwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A"
    "2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A"
    "/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8A"
    "Wjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8A"
    "Nqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv6w8A"
    "nh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE6Q8A"
    "KEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8A"
    "fjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A/uQvErXiDwBXVZkDAOIPABSDeII84Q8A"
    "sGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8A"
    "EvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8A"
    "mEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8"
    "vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI8"
    "9ZFXwD88ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8"
    "pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8"
    "Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88"
    "rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8"
    "awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8"
    "n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI8"
    "10huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8"
    "dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8"
    "YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8"
    "OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8"
    "VPhhMcTztjzraIv3Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8"
    "595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8"
    "J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8"
    "NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLALmuT07s8"
    "g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+qvDyQ1jvH4cm8PDfgaDBe6bw8"
    "bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb48"
    "9kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88"
    "aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8"
    "frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8"
    "QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8"
    "Oa7k++vhwTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8"
    "l9uWMdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8"
    "dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8"
    "jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/"
    "h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO97D9/eKnOXmrsP+q67tkcG+w/"
    "gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/"
    "wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/"
    "1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOeWMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/"
    "av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/"
    "eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/"
    "7jvqVazh4j9KldcUqrriPxXNk47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/"
    "UDybcJuM4T/aOYYSBWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/"
    "Lj+mr7xL4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gsHW/SNdw/"
    "F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDqy0jaPz6ERjmSDNo/"
    "35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv2D/ZDap/TzXYPxHZuBGt+9c/"
    "sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/"
    "RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6KcEFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/"
    "29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/"
    "nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/"
    "2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/"
    "T1Gy+LZNzT/Mb16KD/DMP1PfcZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/"
    "PX4tMvcQyj9a/tK/0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/"
    "FkeWfmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/"
    "uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZhtdO9P+WRvbmrOL0/"
    "CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK5rc/"
    "dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/hpomI+/tsz9wPtnkxV+zPxExm89m0rI/"
    "kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVubCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/"
    "cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/"
    "vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/"
    "E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY/"
    "/bGwAx+KcD9nsMFDn19lPw/3ubYFplQ/"
)
_KI = struct.unpack_from("<256Q", _TABLES, 0)
_WI = struct.unpack_from("<256d", _TABLES, 2048)
_FI = struct.unpack_from("<256d", _TABLES, 4096)
del _TABLES


def _seed_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``."""
    entropy = []
    while True:  # the seed's 32-bit words, least significant first
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))

    hash_const = _INIT_B
    words = []
    for i in range(8):  # 8 words of 32 bits, paired little-endian into 4 of 64
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The random stream of ``numpy.random.default_rng(seed)`` for an integer
    ``seed >= 0``: the same ``random``, ``uniform`` and ``standard_normal``
    draws, in the same order, as Python floats and lists."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, not {seed}")
        s0, s1, i0, i1 = _seed_state(seed)
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # PCG's srandom: a step from 0, add the initial state, a step
        self._inc = inc
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        high = state >> 64
        x = (high ^ state) & _MASK64
        rot = high >> 58
        return (x >> rot | x << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A float in ``[0, 1)`` on the grid of ``2**-53``."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: Optional[int] = None) -> Union[float, List[float]]:
        """``low + (high - low) * random()``, one float or a list of ``size``."""
        low, high = float(low), float(high)
        span = high - low
        if size is None:
            return low + span * self.random()
        return [low + span * self.random() for _ in range(size)]

    def standard_normal(self, size: int) -> List[float]:
        """A list of ``size`` standard normal floats."""
        # the 128-bit step and output of _next64 are inlined: most draws
        # take one step and one table lookup
        state, inc = self._state, self._inc
        ki, wi = _KI, _WI
        out = []
        for _ in range(size):
            while True:
                state = (state * _PCG_MULT + inc) & _MASK128
                high = state >> 64
                x = (high ^ state) & _MASK64
                rot = high >> 58
                r = x >> rot | x << (64 - rot)  # the bits above 64 reach neither idx nor rabs
                idx = r & 0xFF
                rabs = r >> 9 & 0x000FFFFFFFFFFFFF
                value = -(rabs * wi[idx]) if r & 0x100 else rabs * wi[idx]
                if rabs < ki[idx]:  # inside the layer's rectangle: most draws
                    break
                self._state = state
                value = self._outside(idx, rabs, value)
                state = self._state
                if value is not None:
                    break
            out.append(value)
        self._state = state
        return out

    def _outside(self, idx: int, rabs: int, x: float) -> Optional[float]:
        """The ziggurat's draw ``x`` that fell outside its layer's rectangle:
        from layer 0, a point of the tail beyond ``_ZIGGURAT_R``; from another
        layer, ``x`` if it lies under the density, else ``None`` (rejected)."""
        if idx == 0:
            while True:
                # 1 - U rather than U keeps log1p's argument above -1
                xx = -_ZIGGURAT_INV_R * math.log1p(-self.random())
                yy = -math.log1p(-self.random())
                if yy + yy > xx * xx:
                    return -(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx
        if (_FI[idx - 1] - _FI[idx]) * self.random() + _FI[idx] < math.exp(-0.5 * x * x):
            return x
        return None
